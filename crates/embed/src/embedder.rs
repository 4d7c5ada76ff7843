//! The deterministic text embedder.
//!
//! Substitutes for OpenAI's `text-embedding-3-large` (paper §4.1): texts are
//! mapped to fixed-size L2-normalised vectors such that
//!
//! * surface overlap raises cosine similarity (word + character-trigram
//!   features), and
//! * *semantic* overlap raises it too: lexicalisations of the same lexicon
//!   concept ("salary" / "wage") project onto a shared feature — but only
//!   for the subset of lexicalisations the embedder *knows*, sampled at
//!   construction with [`EmbedConfig::lexicon_coverage`]. Coverage < 1.0
//!   models the imperfect synonym knowledge of a real embedding model and is
//!   the main quality knob exercised by the ablation benches.
//!
//! This is the hottest code in the repository. It runs twice per library
//! entry at prepare time, and a GRED translation calls it about 120 times:
//! twice from the pipeline (the question, then the generated DVQ — the two
//! embeddings the pipeline brackets as `Step::Embed` for its caller's
//! observer) and once per distinct phrase, slot and schema name the
//! simulated model links. The embedder itself opens no span and polls no
//! fault point. The hot path is allocation-free: it
//! tokenizes over byte ranges of a reused thread-local scratch buffer,
//! hashes features incrementally, resolves concept phrases against a hash
//! map precomputed at construction (including plural-stemmed forms) instead
//! of re-joining phrase strings per probe, and normalises only the lanes its
//! features touched (of 256: about 7 for a schema name, 56 for a DVQ, 75
//! for a question — measured over `paper(7)`). See DESIGN.md §5.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use t2v_corpus::lexicon::Lexicon;

/// Embedder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedConfig {
    /// Vector dimensionality.
    pub dims: usize,
    /// Fraction of non-primary lexicalisations the embedder knows map to
    /// their concept (primary forms are always known).
    pub lexicon_coverage: f64,
    /// Seed for the coverage sample.
    pub seed: u64,
    /// Feature weights.
    pub word_weight: f32,
    pub concept_weight: f32,
    pub trigram_weight: f32,
}

impl Default for EmbedConfig {
    fn default() -> Self {
        EmbedConfig {
            dims: 256,
            lexicon_coverage: 0.9,
            seed: 0x7e37,
            word_weight: 1.0,
            concept_weight: 1.6,
            trigram_weight: 0.25,
        }
    }
}

/// One resolvable phrase in the precomputed concept-lookup table.
///
/// The table mirrors `Lexicon::concept_of_phrase_stemmed` exactly: it is
/// keyed by an FNV hash of the phrase, holds the canonical phrase text for
/// collision verification, and contains *stemmed* (plural) forms alongside
/// exact lexicalisations so probes never rebuild candidate strings.
#[derive(Debug, Clone)]
struct PhraseEntry {
    /// Canonical probe text: words joined by single spaces.
    phrase: Box<str>,
    /// (concept, alt) this phrase resolves to under seed semantics.
    concept: usize,
    alt: usize,
    /// Whether the coverage sample knows this (concept, alt).
    known: bool,
    /// Precomputed feature slot for the concept id (dim, signed weight).
    dim: u32,
    signed_weight: f32,
}

/// Deterministic concept-aware text embedder.
#[derive(Debug, Clone)]
pub struct TextEmbedder {
    cfg: EmbedConfig,
    lexicon: Lexicon,
    /// Known (concept index, alt index) lexicalisations.
    known: HashSet<(usize, usize)>,
    /// Phrase-hash → entries (Vec only for the astronomically unlikely hash
    /// collision; the stored phrase disambiguates).
    phrases: PhraseTable,
    /// One bit per `fnv(first word) % FIRST_WORD_BITS` of every phrase the
    /// coverage sample knows. Derived from `phrases`; a clear bit means no
    /// feature-bearing phrase starts with that word.
    first_words: Box<[u64]>,
}

/// Width of the first-word filter: 2 KiB for the ~1000 distinct first words
/// of the builtin lexicon, so about one unrelated word in sixteen passes it.
const FIRST_WORD_BITS: u64 = 1 << 14;

/// A word's (word index, bit mask) in the first-word filter.
fn first_word_bit(word: &[u8]) -> (usize, u64) {
    let h = fnv_bytes(word) % FIRST_WORD_BITS;
    ((h / 64) as usize, 1 << (h % 64))
}

fn first_word_filter(phrases: &PhraseTable) -> Box<[u64]> {
    let mut bits = vec![0u64; (FIRST_WORD_BITS / 64) as usize].into_boxed_slice();
    for entry in phrases.values().flatten().filter(|e| e.known) {
        let first = entry.phrase.split(' ').next().unwrap_or_default();
        let (word, mask) = first_word_bit(first.as_bytes());
        bits[word] |= mask;
    }
    bits
}

/// The phrase table's keys are FNV hashes already, so the map takes them as
/// they are instead of running SipHash over each of the up to three probes
/// per word. The keys come from the lexicon, never from a caller's text (a
/// probe only reads), so there is no chosen-key collision to guard against.
type PhraseTable = HashMap<u64, Vec<PhraseEntry>, BuildHasherDefault<PhraseHash>>;

#[derive(Debug, Clone, Copy, Default)]
struct PhraseHash(u64);

impl Hasher for PhraseHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the phrase table is keyed by u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// One row of the serialisable phrase-table view: a resolvable phrase
/// (exact or plural-stemmed) and the (concept, alt) it maps to. The feature
/// slot and coverage flag are *derived* state and are recomputed on
/// reconstruction, so a persisted table cannot drift from its lexicon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseRow {
    pub phrase: String,
    pub concept: u32,
    pub alt: u32,
}

/// A plain-data view of everything that determines a [`TextEmbedder`]'s
/// behaviour — the (de)serialisation seam used by the snapshot store.
/// [`TextEmbedder::to_parts`] emits it in a canonical order (known pairs and
/// phrase rows sorted), so equal embedders serialise to equal bytes.
#[derive(Debug, Clone)]
pub struct EmbedderParts {
    pub config: EmbedConfig,
    pub lexicon: Lexicon,
    /// Known (concept, alt) lexicalisations, sorted. Persisted explicitly —
    /// not re-sampled from the seed — so snapshots stay valid even if the
    /// sampling RNG ever changes.
    pub known: Vec<(u32, u32)>,
    /// Every resolvable phrase (exact + stemmed forms), sorted by phrase.
    pub phrases: Vec<PhraseRow>,
}

/// Reused per-thread embedding state: a lowercase byte buffer, the word
/// ranges into it, and one bit per output lane a feature landed on.
/// Embedding allocates nothing after thread warm-up.
#[derive(Default)]
struct Scratch {
    buf: Vec<u8>,
    words: Vec<(u32, u32)>,
    touched: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl TextEmbedder {
    pub fn new(lexicon: Lexicon, cfg: EmbedConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut known = HashSet::new();
        for (ci, c) in lexicon.concepts.iter().enumerate() {
            for ai in 0..c.alts.len() {
                if ai == 0 || rng.gen_bool(cfg.lexicon_coverage) {
                    known.insert((ci, ai));
                }
            }
        }
        let mut e = TextEmbedder {
            cfg,
            lexicon,
            known,
            phrases: PhraseTable::default(),
            first_words: Box::default(),
        };
        e.build_phrase_table();
        e.first_words = first_word_filter(&e.phrases);
        e
    }

    /// Precompute every phrase `concept_of_phrase_stemmed` can resolve.
    ///
    /// Insertion happens in three priority rounds matching the seed lookup
    /// order — exact phrases, then plural forms stripped by `es`, then by
    /// `s` — with first-wins semantics per phrase (earlier concepts claim
    /// shared phrases, exact forms beat stemmed ones).
    fn build_phrase_table(&mut self) {
        let mut by_phrase: HashMap<String, (usize, usize)> = HashMap::new();

        // Round 0: exact lexicalisations (concept order, first wins).
        for (ci, c) in self.lexicon.concepts.iter().enumerate() {
            for alt in &c.alts {
                let phrase = alt.join(" ");
                by_phrase.entry(phrase).or_insert_with(|| {
                    let ai = c
                        .alts
                        .iter()
                        .position(|a| a == alt)
                        .expect("alt is from this concept");
                    (ci, ai)
                });
            }
        }

        // Rounds 1–2: inputs whose stemmed form hits a round-0 phrase.
        // An input `X` resolves by trying `strip("es")` then `strip("s")`,
        // so `…es` derivations are inserted before `…s` ones. Derived inputs
        // are never themselves exact lexicalisations (those were claimed in
        // round 0), so they resolve to alt 0 — which is always known.
        // Snapshot the exact phrases (derivation inserts into the same map).
        // Iteration order within a round is irrelevant: `phrase + suffix` is
        // injective per suffix, so no two sources compete for one derived key
        // in the same round, and cross-round priority is the loop order.
        let exact: Vec<(String, usize)> = by_phrase
            .iter()
            .map(|(p, &(ci, _))| (p.clone(), ci))
            .collect();
        for suffix in ["es", "s"] {
            for (phrase, ci) in &exact {
                let last = phrase.rsplit(' ').next().expect("phrases are non-empty");
                if last.len() < 2 || (suffix == "s" && last.ends_with('s')) {
                    // Seed lookup rejects stems shorter than 2 chars and
                    // plural inputs ending in "ss".
                    continue;
                }
                let derived = format!("{phrase}{suffix}");
                by_phrase.entry(derived).or_insert((*ci, 0));
            }
        }

        for (phrase, (ci, ai)) in by_phrase {
            let (dim, signed_weight) = feature_slot(
                b"c:",
                self.lexicon.concepts[ci].id.as_bytes(),
                self.cfg.dims,
                self.cfg.concept_weight,
            );
            let entry = PhraseEntry {
                phrase: phrase.into_boxed_str(),
                concept: ci,
                alt: ai,
                known: self.known.contains(&(ci, ai)),
                dim,
                signed_weight,
            };
            self.phrases
                .entry(fnv_str(&entry.phrase))
                .or_default()
                .push(entry);
        }
    }

    /// Build with the default configuration over the builtin lexicon.
    pub fn default_model() -> Self {
        TextEmbedder::new(Lexicon::builtin(), EmbedConfig::default())
    }

    pub fn dims(&self) -> usize {
        self.cfg.dims
    }

    pub fn config(&self) -> &EmbedConfig {
        &self.cfg
    }

    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Capture the embedder as plain data, in canonical (sorted) order.
    /// `from_parts(to_parts())` reconstructs a behaviourally identical
    /// embedder (byte-identical `embed` output — property-tested).
    pub fn to_parts(&self) -> EmbedderParts {
        let mut known: Vec<(u32, u32)> = self
            .known
            .iter()
            .map(|&(ci, ai)| (ci as u32, ai as u32))
            .collect();
        known.sort_unstable();
        let mut phrases: Vec<PhraseRow> = self
            .phrases
            .values()
            .flatten()
            .map(|e| PhraseRow {
                phrase: e.phrase.to_string(),
                concept: e.concept as u32,
                alt: e.alt as u32,
            })
            .collect();
        phrases.sort_unstable_by(|a, b| a.phrase.cmp(&b.phrase));
        EmbedderParts {
            config: self.cfg.clone(),
            lexicon: self.lexicon.clone(),
            known,
            phrases,
        }
    }

    /// Reconstruct an embedder from captured parts **without re-deriving**
    /// the coverage sample or the stemmed-phrase derivation rounds: the
    /// persisted `known` set and phrase→concept map are taken as-is, and
    /// only the per-row derived state (feature slot, coverage flag) is
    /// recomputed. Structural inconsistencies are `Err`s, never panics.
    pub fn from_parts(parts: EmbedderParts) -> Result<TextEmbedder, String> {
        let EmbedderParts {
            config: cfg,
            lexicon,
            known,
            phrases,
        } = parts;
        if cfg.dims == 0 {
            return Err("embedder dims must be non-zero".to_string());
        }
        let in_range = |ci: u32, ai: u32| -> Result<(usize, usize), String> {
            let concept = lexicon
                .concepts
                .get(ci as usize)
                .ok_or_else(|| format!("concept index {ci} out of range"))?;
            if ai as usize >= concept.alts.len() {
                return Err(format!("alt index {ai} out of range for concept {ci}"));
            }
            Ok((ci as usize, ai as usize))
        };
        let known: HashSet<(usize, usize)> = known
            .into_iter()
            .map(|(ci, ai)| in_range(ci, ai))
            .collect::<Result<_, _>>()?;
        let mut table = PhraseTable::default();
        for row in phrases {
            let (ci, ai) = in_range(row.concept, row.alt)?;
            if row.phrase.is_empty() {
                return Err("phrase table contains an empty phrase".to_string());
            }
            let (dim, signed_weight) = feature_slot(
                b"c:",
                lexicon.concepts[ci].id.as_bytes(),
                cfg.dims,
                cfg.concept_weight,
            );
            let entry = PhraseEntry {
                phrase: row.phrase.into_boxed_str(),
                concept: ci,
                alt: ai,
                known: known.contains(&(ci, ai)),
                dim,
                signed_weight,
            };
            let bucket = table.entry(fnv_str(&entry.phrase)).or_default();
            if bucket.iter().any(|e| e.phrase == entry.phrase) {
                return Err(format!("phrase {:?} listed twice", entry.phrase));
            }
            bucket.push(entry);
        }
        Ok(TextEmbedder {
            cfg,
            lexicon,
            known,
            first_words: first_word_filter(&table),
            phrases: table,
        })
    }

    /// Lowercase alphanumeric word tokens (underscores split words).
    pub fn tokenize(text: &str) -> Vec<String> {
        let mut scratch = Scratch::default();
        tokenize_into(text, &mut scratch);
        scratch
            .words
            .iter()
            .map(|&(s, e)| {
                String::from_utf8(scratch.buf[s as usize..e as usize].to_vec())
                    .expect("buffer is pure ASCII")
            })
            .collect()
    }

    /// Embed `text` into an L2-normalised vector.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0f32; self.cfg.dims];
        self.embed_into(text, &mut v);
        v
    }

    /// Embed `text` into a caller-provided buffer of length
    /// [`TextEmbedder::dims`], overwriting it. Allocation-free after
    /// per-thread warm-up; byte-identical to [`TextEmbedder::embed`].
    pub fn embed_into(&self, text: &str, out: &mut [f32]) {
        SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            self.accumulate(text, out, scratch);
            normalize_touched(out, &scratch.touched);
        });
    }

    /// Sum the feature weights of `text` into `out` (overwritten, not yet
    /// normalised) and leave in `scratch.touched` one bit per lane a
    /// feature landed on — every other lane is exactly `+0.0`.
    fn accumulate(&self, text: &str, out: &mut [f32], scratch: &mut Scratch) {
        assert_eq!(out.len(), self.cfg.dims, "output buffer length mismatch");
        out.fill(0.0);
        tokenize_into(text, scratch);
        let Scratch {
            buf,
            words,
            touched,
        } = scratch;
        touched.clear();
        touched.resize(out.len().div_ceil(64), 0);

        // Word and trigram features.
        for &(s, e) in words.iter() {
            let w = &buf[s as usize..e as usize];
            add_feature(out, touched, b"w:", w, self.cfg.word_weight);
            if w.len() >= 3 {
                for tri in w.windows(3) {
                    add_feature(out, touched, b"t:", tri, self.cfg.trigram_weight);
                }
            }
        }

        // Concept features: greedy longest-match of word n-grams against
        // the precomputed phrase table.
        let mut i = 0usize;
        while i < words.len() {
            i += match self.match_phrase(buf, &words[i..]) {
                Some((len, entry)) => {
                    add_weight(out, touched, entry.dim, entry.signed_weight);
                    len
                }
                None => 1,
            };
        }
    }

    /// The longest known phrase (three words down to one) that starts at
    /// `words[0]`, with its length in words. Most words start no known
    /// phrase; the first-word filter spares them their three probes.
    fn match_phrase(&self, buf: &[u8], words: &[(u32, u32)]) -> Option<(usize, &PhraseEntry)> {
        let &(s, e) = words.first()?;
        let (word, mask) = first_word_bit(&buf[s as usize..e as usize]);
        if self.first_words[word] & mask == 0 {
            return None;
        }
        (1..=words.len().min(3)).rev().find_map(|len| {
            let entry = self.probe_phrase(buf, &words[..len])?;
            entry.known.then_some((len, entry))
        })
    }

    /// Look up the n-gram `words` (ranges into `buf`) in the phrase table
    /// without materialising the joined phrase: the FNV state is fed word by
    /// word with a space separator, and candidate entries verify against the
    /// stored canonical phrase to rule out hash collisions.
    fn probe_phrase(&self, buf: &[u8], words: &[(u32, u32)]) -> Option<&PhraseEntry> {
        let mut h: u64 = FNV_OFFSET;
        for (wi, &(s, e)) in words.iter().enumerate() {
            if wi > 0 {
                h = fnv_step(h, b' ');
            }
            for &b in &buf[s as usize..e as usize] {
                h = fnv_step(h, b);
            }
        }
        self.phrases
            .get(&h)?
            .iter()
            .find(|entry| phrase_matches(&entry.phrase, buf, words))
    }

    /// Whether the embedder knows this (concept, alt) lexicalisation — used
    /// by diagnostics and coverage benches.
    pub fn knows(&self, concept: usize, alt: usize) -> bool {
        self.known.contains(&(concept, alt))
    }

    /// Which (concept, alt) an n-gram phrase resolves to, if any — the
    /// precomputed equivalent of `Lexicon::concept_of_phrase_stemmed` plus
    /// the alt-position rule. Exposed for the equivalence property tests.
    #[doc(hidden)]
    pub fn resolve_phrase(&self, phrase: &str) -> Option<(usize, usize)> {
        self.phrases
            .get(&fnv_str(phrase))?
            .iter()
            .find(|e| &*e.phrase == phrase)
            .map(|e| (e.concept, e.alt))
    }
}

/// Fill `scratch` with the lowercase words of `text`: `buf` holds the
/// lowercased alphanumeric bytes back to back, `words` the (start, end)
/// byte ranges. Equivalent to the old `Vec<String>` tokenizer (multi-byte
/// UTF-8 sequences are non-alphanumeric bytes, i.e. separators).
fn tokenize_into(text: &str, scratch: &mut Scratch) {
    scratch.buf.clear();
    scratch.words.clear();
    let mut start: Option<u32> = None;
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() {
            if start.is_none() {
                start = Some(scratch.buf.len() as u32);
            }
            scratch.buf.push(b.to_ascii_lowercase());
        } else if let Some(s) = start.take() {
            scratch.words.push((s, scratch.buf.len() as u32));
        }
    }
    if let Some(s) = start {
        scratch.words.push((s, scratch.buf.len() as u32));
    }
}

/// Does `phrase` equal the words joined by single spaces?
fn phrase_matches(phrase: &str, buf: &[u8], words: &[(u32, u32)]) -> bool {
    let p = phrase.as_bytes();
    let mut pos = 0usize;
    for (wi, &(s, e)) in words.iter().enumerate() {
        if wi > 0 {
            if p.get(pos) != Some(&b' ') {
                return false;
            }
            pos += 1;
        }
        let w = &buf[s as usize..e as usize];
        if p.len() < pos + w.len() || &p[pos..pos + w.len()] != w {
            return false;
        }
        pos += w.len();
    }
    pos == p.len()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().copied().fold(FNV_OFFSET, fnv_step)
}

fn fnv_str(s: &str) -> u64 {
    fnv_bytes(s.as_bytes())
}

/// FNV-1a over a tagged byte string, mapped to (dimension, signed weight).
#[inline]
fn feature_slot(tag: &[u8], bytes: &[u8], dims: usize, weight: f32) -> (u32, f32) {
    let mut h: u64 = FNV_OFFSET;
    for &b in tag.iter().chain(bytes.iter()) {
        h = fnv_step(h, b);
    }
    let dim = (h % dims as u64) as u32;
    let sign = if (h >> 63) & 1 == 1 { -1.0 } else { 1.0 };
    (dim, sign * weight)
}

/// FNV-1a over a tagged byte string, accumulated into the feature vector.
#[inline]
fn add_feature(v: &mut [f32], touched: &mut [u64], tag: &[u8], bytes: &[u8], weight: f32) {
    let (dim, w) = feature_slot(tag, bytes, v.len(), weight);
    add_weight(v, touched, dim, w);
}

/// Add `w` to lane `dim` and mark the lane as touched.
#[inline]
fn add_weight(v: &mut [f32], touched: &mut [u64], dim: u32, w: f32) {
    v[dim as usize] += w;
    touched[dim as usize / 64] |= 1 << (dim % 64);
}

/// Call `f` with every lane whose bit is set, in ascending lane order.
#[inline]
fn for_each_touched(touched: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in touched.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// [`l2_normalize`] for a vector that is exactly `+0.0` outside the lanes
/// marked in `touched`, with the same bits out. The dense loop adds the
/// squares in ascending lane order and divides every lane; squaring,
/// adding or dividing an untouched `+0.0` changes nothing (`s + 0.0 == s`,
/// `0.0 / n == 0.0`), so walking only the touched lanes in the same order
/// performs the same roundings. A touched lane whose features cancelled to
/// `0.0` is still walked, as the dense loop walks it.
fn normalize_touched(v: &mut [f32], touched: &[u64]) {
    let mut sum = 0.0f32;
    for_each_touched(touched, |i| sum += v[i] * v[i]);
    let norm = sum.sqrt();
    if norm > 0.0 {
        for_each_touched(touched, |i| v[i] /= norm);
    }
}

/// Normalise to unit length (no-op for the zero vector).
pub fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f32 = crate::index::dot(a, b);
    let na: f32 = crate::index::dot(a, a).sqrt();
    let nb: f32 = crate::index::dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model(coverage: f64) -> TextEmbedder {
        TextEmbedder::new(
            Lexicon::builtin(),
            EmbedConfig {
                lexicon_coverage: coverage,
                ..EmbedConfig::default()
            },
        )
    }

    #[test]
    fn identical_texts_have_cosine_one() {
        let m = model(1.0);
        let a = m.embed("show the average salary per department");
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn synonyms_are_closer_than_unrelated_words() {
        let m = model(1.0);
        let salary = m.embed("salary");
        let wage = m.embed("wage");
        let cinema = m.embed("cinema");
        assert!(
            cosine(&salary, &wage) > cosine(&salary, &cinema) + 0.2,
            "syn={} unrel={}",
            cosine(&salary, &wage),
            cosine(&salary, &cinema)
        );
    }

    #[test]
    fn multiword_synonyms_match() {
        let m = model(1.0);
        let a = m.embed("hire_date");
        let b = m.embed("date of hire");
        let c = m.embed("openning year");
        assert!(cosine(&a, &b) > cosine(&a, &c));
    }

    #[test]
    fn zero_coverage_kills_synonym_signal() {
        let full = model(1.0);
        let none = TextEmbedder::new(
            Lexicon::builtin(),
            EmbedConfig {
                lexicon_coverage: 0.0,
                concept_weight: 1.6,
                ..EmbedConfig::default()
            },
        );
        let s_full = cosine(&full.embed("salary"), &full.embed("wage"));
        let s_none = cosine(&none.embed("salary"), &none.embed("wage"));
        assert!(s_full > s_none + 0.2, "full={s_full} none={s_none}");
    }

    #[test]
    fn sentence_similarity_prefers_paraphrase_over_different_question() {
        let m = model(1.0);
        let q =
            m.embed("Please give me a histogram showing the change in wage over the date of hire.");
        let same = m.embed("Draw a bar chart about the change of salary over hire_date.");
        let other = m.embed("Show all countries with a pie chart.");
        assert!(cosine(&q, &same) > cosine(&q, &other) + 0.1);
    }

    #[test]
    fn embedding_is_deterministic() {
        let m = model(0.8);
        assert_eq!(m.embed("abc def"), m.embed("abc def"));
    }

    #[test]
    fn tokenize_splits_on_underscores_and_case() {
        assert_eq!(
            TextEmbedder::tokenize("HIRE_DATE, salary!"),
            vec!["hire", "date", "salary"]
        );
    }

    #[test]
    fn vectors_are_unit_norm() {
        let m = model(0.9);
        let v = m.embed("some nontrivial text with words");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let z = vec![0.0; 8];
        let o = vec![1.0; 8];
        assert_eq!(cosine(&z, &o), 0.0);
    }

    #[test]
    fn embed_into_reuses_buffer_and_matches_embed() {
        let m = model(0.9);
        let mut buf = vec![7.0f32; m.dims()];
        m.embed_into("show the average salary per city", &mut buf);
        assert_eq!(buf, m.embed("show the average salary per city"));
        // Reuse without clearing: embed_into overwrites.
        m.embed_into("different text entirely", &mut buf);
        assert_eq!(buf, m.embed("different text entirely"));
    }

    /// Every stride the touched-lane bitmap has to get right: one lane, a
    /// last word that is partial (63, 65, 300), exactly full (64, 256), and
    /// a non-power-of-two.
    const STRIDES: [usize; 6] = [1, 63, 64, 65, 256, 300];

    fn models_by_stride() -> &'static [TextEmbedder] {
        static MODELS: std::sync::OnceLock<Vec<TextEmbedder>> = std::sync::OnceLock::new();
        MODELS.get_or_init(|| {
            STRIDES
                .iter()
                .map(|&dims| {
                    TextEmbedder::new(
                        Lexicon::builtin(),
                        EmbedConfig {
                            dims,
                            ..EmbedConfig::default()
                        },
                    )
                })
                .collect()
        })
    }

    /// The oracle for the touched-lane normalise: the same feature fill,
    /// then the dense [`l2_normalize`] over every lane.
    fn embed_dense(m: &TextEmbedder, text: &str) -> Vec<f32> {
        let mut v = vec![f32::NAN; m.dims()];
        m.accumulate(text, &mut v, &mut Scratch::default());
        l2_normalize(&mut v);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn featureless_text_stays_all_positive_zero() {
        for m in models_by_stride() {
            for text in ["", " ", " \t\n ", "!?-", "数据", "\u{0301}\u{0301}", "שלום"] {
                let v = m.embed(text);
                assert!(v.iter().all(|x| x.to_bits() == 0), "{text:?}");
                assert_eq!(bits(&v), bits(&embed_dense(m, text)), "{text:?}");
            }
        }
    }

    /// Two words whose word features land on one lane with opposite signs
    /// cancel it to exactly `0.0`: a touched lane that holds zero, which the
    /// sparse walk must square, add and divide like the dense loop does.
    /// (Three letters, because FNV needs three varying bytes to reach the
    /// sign bit; their trigram features land wherever they land.)
    #[test]
    fn cancelled_lanes_match_the_dense_normalise() {
        for m in models_by_stride() {
            let dims = m.dims();
            let words: Vec<String> = (0..26u32.pow(3))
                .map(|i| {
                    let letter = |n: u32| char::from(b'a' + (n % 26) as u8);
                    String::from_iter([letter(i / 676), letter(i / 26), letter(i)])
                })
                .filter(|w| m.resolve_phrase(w).is_none())
                .collect();
            let slot = |w: &str| feature_slot(b"w:", w.as_bytes(), dims, 1.0);
            let (a, b) = words
                .iter()
                .find_map(|a| {
                    let (dim, sign) = slot(a);
                    let b = words.iter().find(|b| slot(b) == (dim, -sign))?;
                    Some((a, b))
                })
                .unwrap_or_else(|| panic!("no cancelling pair at dims {dims}"));
            let pair = format!("{a} {b}");
            let mut raw = vec![0f32; dims];
            let mut scratch = Scratch::default();
            m.accumulate(&pair, &mut raw, &mut scratch);
            let mut touched_zeros = 0;
            for_each_touched(&scratch.touched, |i| {
                touched_zeros += (raw[i] == 0.0) as usize
            });
            // With one lane the trigram weights share it, so it may survive.
            assert!(touched_zeros > 0 || dims == 1, "dims {dims} {pair:?}");
            for text in [pair, format!("{a} zq {b} {b} {a}")] {
                assert_eq!(
                    bits(&m.embed(&text)),
                    bits(&embed_dense(m, &text)),
                    "dims {dims} {text:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `embed` (touched lanes only) and the dense oracle agree bit for
        /// bit, lane by lane, on arbitrary text: ASCII words and lexicon
        /// phrases, runs of separators, CJK, combining marks and RTL
        /// letters (all separators to the byte tokenizer) — never a panic,
        /// and the same bits on a second call.
        #[test]
        fn touched_lane_normalise_equals_dense(
            text in "[a-z A-Z0-9_,.\t\n一-鿿\u{0300}-\u{036f}א-ת]{0,48}",
            lexical in prop::sample::select(vec![
                "", "salary", "wages by date of hire", "departments", "HIRE_DATE",
            ]),
            stride in 0usize..STRIDES.len(),
        ) {
            let m = &models_by_stride()[stride];
            let text = format!("{lexical} {text}");
            let got = m.embed(&text);
            prop_assert_eq!(bits(&got), bits(&embed_dense(m, &text)));
            prop_assert_eq!(bits(&got), bits(&m.embed(&text)));
            let mut into = vec![7.0f32; m.dims()];
            m.embed_into(&text, &mut into);
            prop_assert_eq!(bits(&got), bits(&into));
        }
    }

    #[test]
    fn phrase_table_matches_lexicon_stemmed_lookup() {
        let m = model(1.0);
        let lex = m.lexicon();
        // Exact, plural-s, plural-es, multiword, and miss cases.
        for probe in [
            "salary",
            "salaries",
            "wages",
            "date of hire",
            "dates of hire",
            "wage",
            "zzz unknown phrase",
            "employees",
            "glass",
        ] {
            let expected = lex.concept_of_phrase_stemmed(probe);
            let got = m.resolve_phrase(probe).map(|(ci, _)| ci);
            assert_eq!(got, expected, "probe {probe:?}");
        }
    }

    #[test]
    fn parts_roundtrip_preserves_embedding_behaviour() {
        let m = model(0.8);
        let parts = m.to_parts();
        // Canonical order: sorted, so equal embedders capture equal parts.
        assert!(parts.known.windows(2).all(|w| w[0] < w[1]));
        assert!(parts.phrases.windows(2).all(|w| w[0].phrase < w[1].phrase));
        let rebuilt = TextEmbedder::from_parts(parts.clone()).unwrap();
        assert_eq!(rebuilt.config(), m.config());
        for text in [
            "show the average salary per department",
            "wages by date of hire",
            "departments",
            "salaries of all staff members in each town",
            "",
        ] {
            assert_eq!(rebuilt.embed(text), m.embed(text), "text {text:?}");
        }
        for probe in ["salary", "salaries", "date of hire", "zzz"] {
            assert_eq!(rebuilt.resolve_phrase(probe), m.resolve_phrase(probe));
        }
        // And the re-captured parts are identical (stable canonical form).
        let again = rebuilt.to_parts();
        assert_eq!(again.known, m.to_parts().known);
        assert_eq!(again.phrases, m.to_parts().phrases);
    }

    #[test]
    fn from_parts_rejects_inconsistent_tables() {
        let m = model(1.0);
        let good = m.to_parts();

        let mut bad = good.clone();
        bad.config.dims = 0;
        assert!(TextEmbedder::from_parts(bad).is_err());

        let mut bad = good.clone();
        bad.known.push((u32::MAX, 0));
        assert!(TextEmbedder::from_parts(bad).is_err());

        let mut bad = good.clone();
        bad.phrases[0].concept = u32::MAX;
        assert!(TextEmbedder::from_parts(bad).is_err());

        let mut bad = good.clone();
        bad.phrases[0].alt = u32::MAX;
        assert!(TextEmbedder::from_parts(bad).is_err());

        let mut bad = good.clone();
        let dup = bad.phrases[0].clone();
        bad.phrases.push(dup);
        assert!(TextEmbedder::from_parts(bad).is_err());

        let mut bad = good;
        bad.phrases[0].phrase = String::new();
        assert!(TextEmbedder::from_parts(bad).is_err());
    }

    #[test]
    fn plural_last_word_still_finds_concept_feature() {
        let m = model(1.0);
        // "departments" only resolves through the stemmed table.
        let plural = m.embed("departments");
        let singular = m.embed("department");
        let unrelated = m.embed("cinema");
        assert!(cosine(&plural, &singular) > cosine(&plural, &unrelated));
    }
}
