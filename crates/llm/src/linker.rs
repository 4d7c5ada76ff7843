//! Semantic schema linking: mapping a *slot* (a column name from a template
//! DVQ, or a noun phrase from the question) onto a column of the target
//! schema.
//!
//! Scores combine two signals:
//!
//! * **direct** — embedding similarity between the slot and the candidate
//!   column name (synonym renames bridge through the concept feature);
//! * **bridged** — the best question phrase that is simultaneously similar
//!   to the slot *and* to the candidate (`max_P sim(P, slot) · sim(P, cand)`),
//!   which aligns each slot with "its" phrase and keeps different slots from
//!   all collapsing onto the single best-matching column.
//!
//! One call of the model embeds each distinct text once, into one
//! [`EmbedCache`] arena, and everything downstream holds [`EmbedId`]s: a
//! similarity is one dot product over two arena rows and the two norms kept
//! from insertion. The arena lives and dies inside one `complete`; a
//! context text's row may come from the model's [`ContextMemo`] instead of
//! the embedder, with the same bits.

use crate::memo::ContextMemo;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use t2v_embed::{fused_dot, TextEmbedder};

/// A map that lives for one model call: its keys are a few hundred texts of
/// one prompt, so a flooding-resistant hash buys nothing and costs a
/// SipHash per lookup. The model's [`ContextMemo`] outlives calls and keeps
/// the standard hasher.
pub(crate) type CallMap<K, V> = HashMap<K, V, BuildHasherDefault<CallHash>>;

/// Word-at-a-time multiplicative hash for [`CallMap`] keys.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CallHash(u64);

impl CallHash {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for CallHash {
    #[inline]
    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits and its tag from the
        // top seven; a multiply mixes upward, so fold the top into the low.
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        self.add(u64::from_le_bytes(last) ^ ((tail.len() as u64) << 59));
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.add(byte as u64);
    }
}

/// A text's row in an [`EmbedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmbedId(u32);

/// The embedding arena of one model call: text → [`EmbedId`] over one
/// contiguous `n × dims` store the embedder fills in place, with each
/// vector's norm taken once, at insert.
pub struct EmbedCache<'a> {
    embedder: &'a TextEmbedder,
    /// The model's memo of context rows, filled with this same embedder.
    memo: Option<&'a ContextMemo>,
    /// How many texts the call expects to embed; the first one sizes the
    /// arena for all of them, so it neither regrows (a copy of every row
    /// so far) nor costs a call that embeds nothing an allocation.
    expected_texts: usize,
    ids: CallMap<Box<str>, EmbedId>,
    rows: Vec<f32>,
    norms: Vec<f32>,
}

impl<'a> EmbedCache<'a> {
    /// An empty arena over `embedder`; `memo`, when given, must be the one
    /// the model keeps beside this embedder.
    pub fn new(
        embedder: &'a TextEmbedder,
        memo: Option<&'a ContextMemo>,
        expected_texts: usize,
    ) -> Self {
        EmbedCache {
            embedder,
            memo,
            expected_texts,
            ids: CallMap::default(),
            rows: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// The id of `text`, embedding it on first sight. These embeddings are
    /// private to the model call: the pipeline's observer never sees them.
    pub fn id(&mut self, text: &str) -> EmbedId {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let embedder = self.embedder;
        let row = self.next_row();
        embedder.embed_into(text, row);
        let norm = fused_dot(row, row).sqrt();
        self.push(text, norm)
    }

    /// [`EmbedCache::id`] for a text of the prompt's *context* — an
    /// example's question, a schema table or column name, an annotation
    /// descriptor — whose row is read from the model's memo when held
    /// there and put there when not. Never call it with the question or
    /// anything derived from it.
    pub fn context_id(&mut self, text: &str) -> EmbedId {
        let Some(memo) = self.memo else {
            return self.id(text);
        };
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let embedder = self.embedder;
        let row = self.next_row();
        let norm = match memo.scatter_row(text, row) {
            Some(norm) => norm,
            None => {
                embedder.embed_into(text, row);
                let norm = fused_dot(row, row).sqrt();
                memo.insert_row(text, row, norm);
                norm
            }
        };
        self.push(text, norm)
    }

    /// A fresh all-`+0.0` row at the end of the arena.
    fn next_row(&mut self) -> &mut [f32] {
        let dims = self.embedder.dims();
        let start = self.rows.len();
        if start == 0 {
            self.ids.reserve(self.expected_texts);
            self.norms.reserve(self.expected_texts);
            self.rows.reserve(self.expected_texts * dims);
        }
        self.rows.resize(start + dims, 0.0);
        &mut self.rows[start..]
    }

    /// Register the row [`EmbedCache::next_row`] handed out as `text`'s.
    fn push(&mut self, text: &str, norm: f32) -> EmbedId {
        let id = EmbedId(self.norms.len() as u32);
        self.norms.push(norm);
        self.ids.insert(text.into(), id);
        id
    }

    fn row(&self, id: EmbedId) -> &[f32] {
        let dims = self.embedder.dims();
        &self.rows[id.0 as usize * dims..][..dims]
    }

    /// Cosine similarity of two embedded texts — the operations of
    /// [`t2v_embed::cosine`] in its order (fused dot, product of the two
    /// `dot(v, v).sqrt()` norms, divide, clamp), so the score has the same
    /// bits; only the norms are not derived again.
    pub fn cos(&self, a: EmbedId, b: EmbedId) -> f32 {
        let (na, nb) = (self.norms[a.0 as usize], self.norms[b.0 as usize]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        (fused_dot(self.row(a), self.row(b)) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// The word n-grams (n = 1..=3) of a text, lowercased, sorted and
/// deduplicated. Words are [`TextEmbedder::tokenize`]'s: runs of ASCII
/// letters and digits. They are joined by single spaces into one buffer,
/// and each n-gram is a span of it.
pub struct Phrases {
    text: String,
    spans: Vec<(u32, u32)>,
}

impl Phrases {
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.spans
            .iter()
            .map(|&(start, end)| &self.text[start as usize..end as usize])
    }
}

/// Word n-grams (n = 1..=3) of a text, lowercased; see [`Phrases`].
pub fn phrases(text: &str) -> Phrases {
    let mut joined = Vec::with_capacity(text.len());
    let mut words: Vec<(u32, u32)> = Vec::new();
    for word in text
        .as_bytes()
        .split(|b| !b.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
    {
        if !joined.is_empty() {
            joined.push(b' ');
        }
        let start = joined.len() as u32;
        joined.extend(word.iter().map(u8::to_ascii_lowercase));
        words.push((start, joined.len() as u32));
    }
    let text = String::from_utf8(joined).expect("ASCII letters, digits and spaces");
    let mut spans = Vec::with_capacity(words.len() * 3);
    for n in 1..=3usize {
        spans.extend(words.windows(n).map(|w| (w[0].0, w[n - 1].1)));
    }
    let span = |&(start, end): &(u32, u32)| &text.as_bytes()[start as usize..end as usize];
    spans.sort_unstable_by(|a, b| span(a).cmp(span(b)));
    spans.dedup_by(|a, b| span(a) == span(b));
    Phrases { text, spans }
}

/// A linking outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkResult {
    pub candidate: usize,
    pub score: f32,
}

/// Link `slot` to the best of `candidates` using the question phrases as
/// bridges. Returns `None` for an empty candidate list.
pub fn link_slot(
    cache: &EmbedCache,
    slot: EmbedId,
    question_phrases: &[EmbedId],
    candidates: &[EmbedId],
) -> Option<LinkResult> {
    if candidates.is_empty() {
        return None;
    }
    // Precompute phrase similarities to the slot, keep the promising ones.
    let bridge_phrases: Vec<(EmbedId, f32)> = question_phrases
        .iter()
        .map(|&p| (p, cache.cos(p, slot)))
        .filter(|&(_, s)| s > 0.25)
        .collect();
    let mut best = LinkResult {
        candidate: 0,
        score: f32::MIN,
    };
    for (i, &cand) in candidates.iter().enumerate() {
        let direct = cache.cos(cand, slot);
        let mut bridged = 0.0f32;
        for &(p, ps) in &bridge_phrases {
            bridged = bridged.max(ps * cache.cos(p, cand));
        }
        let score = direct.max(bridged);
        if score > best.score {
            best = LinkResult {
                candidate: i,
                score,
            };
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use t2v_embed::{cosine, EmbedConfig, TextEmbedder};

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(
            t2v_corpus::Lexicon::builtin(),
            EmbedConfig {
                lexicon_coverage: 1.0,
                ..EmbedConfig::default()
            },
        )
    }

    fn ids(cache: &mut EmbedCache, texts: &[&str]) -> Vec<EmbedId> {
        texts.iter().map(|t| cache.id(t)).collect()
    }

    fn link(
        cache: &mut EmbedCache,
        slot: &str,
        question: &str,
        candidates: &[&str],
    ) -> Option<LinkResult> {
        let slot = cache.id(slot);
        let phrases: Vec<EmbedId> = phrases(question).iter().map(|p| cache.id(p)).collect();
        let candidates = ids(cache, candidates);
        link_slot(cache, slot, &phrases, &candidates)
    }

    #[test]
    fn exact_name_links_directly() {
        let e = embedder();
        let mut cache = EmbedCache::new(&e, None, 8);
        let r = link(&mut cache, "salary", "", &["SALARY", "CITY"]).unwrap();
        assert_eq!(r.candidate, 0);
        assert!(r.score > 0.9);
    }

    #[test]
    fn synonym_rename_links_through_concept() {
        let e = embedder();
        let mut cache = EmbedCache::new(&e, None, 8);
        let r = link(&mut cache, "SALARY", "", &["wage", "town"]).unwrap();
        assert_eq!(r.candidate, 0, "salary should link to wage");
    }

    #[test]
    fn bridging_disambiguates_slots() {
        let e = embedder();
        let mut cache = EmbedCache::new(&e, None, 8);
        let q = "show the mean pay for every municipality";
        // Slot "salary" should land on "wage", slot "city" on "town".
        let r1 = link(&mut cache, "salary", q, &["wage", "town"]).unwrap();
        let r2 = link(&mut cache, "city", q, &["wage", "town"]).unwrap();
        assert_eq!(r1.candidate, 0);
        assert_eq!(r2.candidate, 1);
    }

    #[test]
    fn phrases_builds_unique_ngrams() {
        let p = phrases("a b a b");
        let p: Vec<&str> = p.iter().collect();
        assert_eq!(p, ["a", "a b", "a b a", "b", "b a", "b a b"]);
    }

    /// `phrases` as it was written first: one `String` per n-gram, kept as
    /// the oracle the span-based version must equal.
    fn joined_phrases(text: &str) -> Vec<String> {
        let words = TextEmbedder::tokenize(text);
        let mut out = Vec::with_capacity(words.len() * 3);
        for n in 1..=3usize {
            for w in words.windows(n) {
                out.push(w.join(" "));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn empty_candidates_yield_none() {
        let e = embedder();
        let mut cache = EmbedCache::new(&e, None, 8);
        assert!(link(&mut cache, "x", "", &[]).is_none());
    }

    #[test]
    fn a_text_is_embedded_once() {
        let e = embedder();
        let mut cache = EmbedCache::new(&e, None, 8);
        let a = cache.id("hire date");
        let b = cache.id("wage");
        assert_ne!(a, b);
        assert_eq!(cache.id("hire date"), a);
        assert_eq!(cache.norms.len(), 2);
        assert_eq!(cache.rows.len(), 2 * e.dims());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The spans of one lowercase buffer list the n-grams the joined
        /// `String`s did, in the same order: over underscores, punctuation,
        /// mixed case, repeated words (so repeated n-grams), non-ASCII
        /// letters and the empty text.
        #[test]
        fn phrases_equal_the_joined_strings(
            words in prop::collection::vec(
                prop::sample::select(vec![
                    "a", "B", "ab", "Ab", "hire_date", "x1", "2024", "é", "naïve", "日本",
                    "--", ",", "", "  ", "_", "a.b", "ZZ", "émile's",
                ]),
                0..14,
            ),
            free in "\\PC{0,24}",
            glue in prop::sample::select(vec![" ", "", "_", ", ", "\t", " / "]),
        ) {
            let text = format!("{}{glue}{free}", words.join(glue));
            let got = phrases(&text);
            prop_assert_eq!(got.iter().collect::<Vec<_>>(), joined_phrases(&text));
        }

        /// The arena's cosine has the bits of `t2v_embed::cosine` over
        /// freshly embedded copies — for arbitrary pairs, a featureless
        /// text (zero vector) on either side, and a text against itself —
        /// and so does a row read from the context memo.
        #[test]
        fn arena_cosine_has_the_bits_of_cosine(
            a in "[a-zA-Z0-9_ ]{0,24}",
            b in "[a-zA-Z0-9_ ]{0,24}",
            lexical in prop::sample::select(vec![
                "",
                "salary",
                "wage",
                "date of hire",
                "HIRE_DATE",
                "For those employees whose salary is in the range of 8000 and 12000 and commission \
                 is not null or department number does not equal to 40, draw a bar chart about \
                 the distribution of hire_date and the average of employee_id bin hire_date by \
                 weekday, and I want to sort y-axis in descending order.",
            ]),
            shape in 0usize..4,
        ) {
            static EMBEDDER: std::sync::OnceLock<TextEmbedder> = std::sync::OnceLock::new();
            let e = EMBEDDER.get_or_init(embedder);
            let (a, b) = match shape {
                0 => (a, String::new()),
                1 => (" ,".to_string(), b),
                2 => (format!("{lexical} {a}"), format!("{lexical} {a}")),
                _ => (format!("{lexical} {a}"), format!("{b} {lexical}")),
            };
            let mut cache = EmbedCache::new(e, None, 2);
            let (ia, ib) = (cache.id(&a), cache.id(&b));
            let want = cosine(&e.embed(&a), &e.embed(&b));
            prop_assert_eq!(cache.cos(ia, ib).to_bits(), want.to_bits());
            prop_assert_eq!(cache.cos(ib, ia).to_bits(), cosine(&e.embed(&b), &e.embed(&a)).to_bits());
            if shape < 2 {
                prop_assert_eq!(want.to_bits(), 0f32.to_bits());
            }

            // A memoised row has a fresh row's bits, norm and cosines —
            // inserted cold by one call and scattered warm into the next.
            let memo = ContextMemo::new();
            let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for pass in ["cold", "warm"] {
                let mut memoised = EmbedCache::new(e, Some(&memo), 2);
                let (ma, mb) = (memoised.context_id(&a), memoised.context_id(&b));
                for (m, fresh) in [(ma, ia), (mb, ib)] {
                    prop_assert_eq!(bits(memoised.row(m)), bits(cache.row(fresh)), "{}", pass);
                    prop_assert_eq!(
                        memoised.norms[m.0 as usize].to_bits(),
                        cache.norms[fresh.0 as usize].to_bits(),
                        "{}", pass
                    );
                }
                prop_assert_eq!(memoised.cos(ma, mb).to_bits(), want.to_bits(), "{}", pass);
                prop_assert_eq!(
                    memoised.cos(mb, ma).to_bits(),
                    cache.cos(ib, ia).to_bits(),
                    "{}", pass
                );
            }
            prop_assert_eq!(memo.len().0, if a == b { 1 } else { 2 });
        }
    }
}
