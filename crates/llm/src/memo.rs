//! The model's context memo: what the simulated model derives from the
//! *context* of its prompts, kept across calls.
//!
//! A GRED prompt is mostly context that recurs from question to question:
//! the retrieved example questions, the target schema's table and column
//! names, its annotation descriptors and the retrieved reference DVQs.
//! The memo keeps two things derived from them, each keyed by its text:
//!
//! * **context embeddings** — the row the embedder gives a context text,
//!   stored sparse (the lanes that are not `+0.0`, with their values) next
//!   to its norm. [`crate::linker::EmbedCache::context_id`] scatters a hit
//!   into the per-call arena, so a row, a norm and every cosine have the
//!   bits a fresh embedding would give;
//! * **reference style evidence** — a reference DVQ's `StyleVote` (null
//!   spelling, `!=` spelling, ORDER BY direction) plus its join-alias vote,
//!   or `None` for a reference that does not parse.
//!
//! Nothing derived from the question enters the memo: not the question,
//! its n-grams, its slots, the stale names a repair looks up, nor the DVQ
//! being retuned or repaired. So a replayed pass over the same questions
//! finds no more than a first pass would after the same context, and a
//! completion stays a pure function of `(messages, params)` — the memo only
//! spares recomputing a value that is the same every time. It is the
//! simulated model's version of a real service's prefix cache.
//!
//! The memo is owned by one [`crate::SimulatedChatModel`] (its clones share
//! it through an `Arc`) and is only ever filled and read with that model's
//! embedder; no other code can build one. It fills lazily, inside
//! `complete`. Each of its two maps holds at most [`CONTEXT_MEMO_CAP`]
//! entries: an insert that would pass the cap clears that map first.

use std::collections::HashMap;
use std::fmt;
use std::sync::{PoisonError, RwLock};
use t2v_dvq::ast::Dvq;
use t2v_dvq::style::StyleVote;

/// Most entries either map of a [`ContextMemo`] holds. A pass over the four
/// nvBench-Rob sets of `paper(7)` fills 8 068 embeddings and 5 002
/// reference DVQs, so the working set fits twice. An embedding entry is its
/// key plus 8 bytes per nonzero lane — at most `dims` lanes, 2 KiB at 256 —
/// so a full row map is bounded by 16 384 × (2 KiB + key) ≈ 34 MB; a style
/// entry is its key plus about 100 bytes. `paper(7)`'s working set is far
/// below that: 0.87 MB of keys and 3.1 MB of lanes (48 lanes a row on
/// average) and 0.57 MB of reference keys, ≈ 7 MB of resident memory with
/// the tables.
pub const CONTEXT_MEMO_CAP: usize = 1 << 14;

/// A context text's embedding: its nonzero lanes and their values, and
/// its norm as the arena takes it.
struct SparseRow {
    lanes: Box<[(u32, f32)]>,
    norm: f32,
}

/// The additive style evidence of one reference DVQ: its [`StyleVote`]
/// (which also counts whether its ORDER BY writes a direction) and whether
/// its joins use aliases. The evidence of several references is the
/// [`merge`] of theirs.
///
/// [`merge`]: StyleEvidence::merge
#[derive(Debug, Clone, Default)]
pub(crate) struct StyleEvidence {
    pub(crate) vote: StyleVote,
    /// Joined references that alias their tables / name them plainly.
    pub(crate) aliased_joins: usize,
    pub(crate) plain_joins: usize,
}

impl StyleEvidence {
    /// The evidence of one reference, `None` when it does not parse.
    pub(crate) fn of(reference: &str) -> Option<StyleEvidence> {
        let q: Dvq = t2v_dvq::parse(reference).ok()?;
        let mut e = StyleEvidence::default();
        e.vote.observe(&q);
        if !q.joins.is_empty() {
            if q.from.alias.is_some() {
                e.aliased_joins += 1;
            } else {
                e.plain_joins += 1;
            }
        }
        Some(e)
    }

    /// Add `other`'s evidence to this one.
    pub(crate) fn merge(&mut self, other: &StyleEvidence) {
        self.vote.merge(&other.vote);
        self.aliased_joins += other.aliased_joins;
        self.plain_joins += other.plain_joins;
    }
}

/// See the module documentation.
pub struct ContextMemo {
    cap: usize,
    rows: RwLock<HashMap<Box<str>, SparseRow>>,
    styles: RwLock<HashMap<Box<str>, Option<StyleEvidence>>>,
}

impl fmt::Debug for ContextMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rows, styles) = self.len();
        f.debug_struct("ContextMemo")
            .field("cap", &self.cap)
            .field("rows", &rows)
            .field("styles", &styles)
            .finish()
    }
}

impl ContextMemo {
    pub(crate) fn new() -> Self {
        ContextMemo::with_cap(CONTEXT_MEMO_CAP)
    }

    /// A memo whose maps clear at `cap` entries.
    pub(crate) fn with_cap(cap: usize) -> Self {
        ContextMemo {
            cap,
            rows: RwLock::default(),
            styles: RwLock::default(),
        }
    }

    /// Entries held: (context embeddings, reference style evidence).
    pub(crate) fn len(&self) -> (usize, usize) {
        (
            self.rows
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            self.styles
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        )
    }

    /// Every text whose row is held.
    #[cfg(test)]
    pub(crate) fn row_keys(&self) -> Vec<String> {
        let rows = self.rows.read().unwrap_or_else(PoisonError::into_inner);
        rows.keys().map(|k| k.to_string()).collect()
    }

    /// Write the memoised row of `text` into `out`, which must be all
    /// `+0.0`, and return its norm; `None` when `text` is not held.
    pub(crate) fn scatter_row(&self, text: &str, out: &mut [f32]) -> Option<f32> {
        let rows = self.rows.read().unwrap_or_else(PoisonError::into_inner);
        let row = rows.get(text)?;
        for &(lane, value) in &row.lanes {
            out[lane as usize] = value;
        }
        Some(row.norm)
    }

    /// Hold `row` (dense, as the embedder wrote it) and `norm` for `text`.
    pub(crate) fn insert_row(&self, text: &str, row: &[f32], norm: f32) {
        let lanes = (0u32..)
            .zip(row)
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(lane, &v)| (lane, v))
            .collect();
        insert_capped(&self.rows, self.cap, text, SparseRow { lanes, norm });
    }

    /// The style evidence of `reference`, derived on first sight.
    pub(crate) fn style(&self, reference: &str) -> Option<StyleEvidence> {
        let held = self
            .styles
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(reference)
            .cloned();
        if let Some(evidence) = held {
            return evidence;
        }
        let evidence = StyleEvidence::of(reference);
        insert_capped(&self.styles, self.cap, reference, evidence.clone());
        evidence
    }
}

/// Insert into a capped map, clearing it first when the insert would pass
/// `cap`. A lock poisoned by a panicking holder still guards a whole map:
/// every write is a single `clear` or `insert`.
fn insert_capped<V>(map: &RwLock<HashMap<Box<str>, V>>, cap: usize, key: &str, value: V) {
    let mut map = map.write().unwrap_or_else(PoisonError::into_inner);
    if map.len() >= cap && !map.contains_key(key) {
        map.clear();
    }
    map.insert(key.into(), value);
}
