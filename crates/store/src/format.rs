//! The snapshot wire format (DESIGN.md §9).
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (48 B): magic "T2VSNAP\0" · version u32 · sections    │
//! │   u32 · corpus_fp u64 · embedder_fp u64 · entries u64 ·      │
//! │   dims u32 · reserved u32                                    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table (32 B × n): kind u32 · reserved u32 ·          │
//! │   offset u64 · len u64 · checksum64 u64                  │
//! ├──────────────────────────────────────────────────────────────┤
//! │ payloads: embedder · strings · entries · nlq_index ·         │
//! │   dvq_index (offsets absolute, contiguous)                   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer (8 B): checksum64 over every preceding byte               │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers and floats are little-endian; strings are `u32`-length-
//! prefixed UTF-8. Library strings (db ids, schemas, NLQs, DVQs) live once
//! in a deduplicated string table and are referenced by `u32` id, so the
//! loader reconstructs the library's `Arc<str>` sharing exactly (entries of
//! one database alias a single schema allocation, as a built library does).
//! Index payloads are the raw pre-normalised row-major `f32` stores — the
//! loader hands them back to [`VectorIndex::from_parts`] untouched, which
//! is what makes a loaded `Gred` byte-identical to a built one.
//!
//! Integrity is layered: the trailer checksum catches any flipped byte or
//! truncation, per-section checksums localise the damage for diagnostics,
//! and the loader's structural validation (bounds-checked reads, cross-
//! checked counts) means arbitrary bytes can never cause UB or a panic —
//! only a structured [`SnapshotError`].

use crate::error::SnapshotError;
use crate::fingerprint::{embedder_fingerprint, library_fingerprint};
use crate::wire::{checksum64, Reader, Writer};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use t2v_corpus::lexicon::{Concept, Lexicon};
use t2v_embed::{EmbedConfig, EmbedderParts, PhraseRow, TextEmbedder, VectorIndex};
use t2v_gred::{EmbeddingLibrary, LibEntry};

pub const MAGIC: [u8; 8] = *b"T2VSNAP\0";
/// The only format: five sections. Any other version byte is refused with
/// [`SnapshotError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: usize = 48;
const SECTION_ROW_LEN: usize = 32;
const TRAILER_LEN: usize = 8;

/// The payload sections, in file order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    Embedder,
    Strings,
    Entries,
    NlqIndex,
    DvqIndex,
}

impl SectionKind {
    const ALL: [SectionKind; 5] = [
        SectionKind::Embedder,
        SectionKind::Strings,
        SectionKind::Entries,
        SectionKind::NlqIndex,
        SectionKind::DvqIndex,
    ];

    fn id(self) -> u32 {
        match self {
            SectionKind::Embedder => 1,
            SectionKind::Strings => 2,
            SectionKind::Entries => 3,
            SectionKind::NlqIndex => 4,
            SectionKind::DvqIndex => 5,
        }
    }

    fn from_id(id: u32) -> Option<SectionKind> {
        SectionKind::ALL.into_iter().find(|k| k.id() == id)
    }

    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Embedder => "embedder",
            SectionKind::Strings => "strings",
            SectionKind::Entries => "entries",
            SectionKind::NlqIndex => "nlq_index",
            SectionKind::DvqIndex => "dvq_index",
        }
    }
}

/// One row of the section table.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    pub kind: SectionKind,
    pub offset: u64,
    pub len: u64,
    pub checksum: u64,
}

/// Everything knowable about a snapshot without decoding its payloads.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub format_version: u32,
    pub corpus_fingerprint: u64,
    pub embedder_fingerprint: u64,
    pub entries: u64,
    pub dims: u32,
    pub file_len: u64,
    pub sections: Vec<SectionInfo>,
}

/// A fully reconstructed snapshot: the embedder and library, ready to feed
/// `Gred::from_parts` without any re-embedding.
pub struct LoadedSnapshot {
    pub embedder: TextEmbedder,
    pub library: EmbeddingLibrary,
    pub manifest: Manifest,
}

impl std::fmt::Debug for LoadedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedSnapshot")
            .field("entries", &self.library.len())
            .field("dims", &self.embedder.dims())
            .field("manifest", &self.manifest)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------------

/// Deduplicating string interner over borrowed library strings.
struct StringTable<'a> {
    ids: HashMap<&'a str, u32>,
    strings: Vec<&'a str>,
}

impl<'a> StringTable<'a> {
    fn new() -> StringTable<'a> {
        StringTable {
            ids: HashMap::new(),
            strings: Vec::new(),
        }
    }

    fn intern(&mut self, s: &'a str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(s, id);
        self.strings.push(s);
        id
    }
}

fn encode_embedder(embedder: &TextEmbedder) -> Vec<u8> {
    let parts = embedder.to_parts();
    let mut w = Writer::new();
    // config
    w.put_u32(parts.config.dims as u32);
    w.put_f64(parts.config.lexicon_coverage);
    w.put_u64(parts.config.seed);
    w.put_f32(parts.config.word_weight);
    w.put_f32(parts.config.concept_weight);
    w.put_f32(parts.config.trigram_weight);
    // lexicon
    w.put_u32(parts.lexicon.concepts.len() as u32);
    for c in &parts.lexicon.concepts {
        w.put_str(&c.id);
        w.put_u32(c.alts.len() as u32);
        for alt in &c.alts {
            w.put_u32(alt.len() as u32);
            for word in alt {
                w.put_str(word);
            }
        }
    }
    // coverage sample (canonical order from to_parts)
    w.put_u32(parts.known.len() as u32);
    for (ci, ai) in &parts.known {
        w.put_u32(*ci);
        w.put_u32(*ai);
    }
    // stemmed-phrase table (canonical order from to_parts)
    w.put_u32(parts.phrases.len() as u32);
    for row in &parts.phrases {
        w.put_str(&row.phrase);
        w.put_u32(row.concept);
        w.put_u32(row.alt);
    }
    w.buf
}

fn encode_index(index: &VectorIndex) -> Vec<u8> {
    let (dims, rows) = index.raw_rows();
    let mut w = Writer::new();
    w.put_u32(dims as u32);
    w.put_u64(index.len() as u64);
    w.put_f32s(rows);
    w.buf
}

/// Serialise a library + its embedder to snapshot bytes.
pub fn encode(library: &EmbeddingLibrary, embedder: &TextEmbedder) -> Vec<u8> {
    // Entries reference the deduplicated string table by id.
    let mut strings = StringTable::new();
    let mut entry_rows: Vec<[u32; 5]> = Vec::with_capacity(library.len());
    for e in &library.entries {
        entry_rows.push([
            e.db as u32,
            strings.intern(&e.db_id),
            strings.intern(&e.schema_text),
            strings.intern(&e.nlq),
            strings.intern(&e.dvq),
        ]);
    }
    let mut strings_payload = Writer::new();
    strings_payload.put_u32(strings.strings.len() as u32);
    for s in &strings.strings {
        strings_payload.put_str(s);
    }
    let mut entries_payload = Writer::new();
    entries_payload.put_u32(entry_rows.len() as u32);
    for row in &entry_rows {
        for v in row {
            entries_payload.put_u32(*v);
        }
    }

    let payloads: [(SectionKind, Vec<u8>); 5] = [
        (SectionKind::Embedder, encode_embedder(embedder)),
        (SectionKind::Strings, strings_payload.buf),
        (SectionKind::Entries, entries_payload.buf),
        (SectionKind::NlqIndex, encode_index(&library.nlq_index)),
        (SectionKind::DvqIndex, encode_index(&library.dvq_index)),
    ];

    // Header.
    let mut out = Writer::new();
    out.buf.extend_from_slice(&MAGIC);
    out.put_u32(FORMAT_VERSION);
    out.put_u32(payloads.len() as u32);
    out.put_u64(library_fingerprint(library));
    out.put_u64(embedder_fingerprint(embedder));
    out.put_u64(library.len() as u64);
    out.put_u32(embedder.dims() as u32);
    out.put_u32(0); // reserved
    debug_assert_eq!(out.buf.len(), HEADER_LEN);

    // Section table, then payloads.
    let mut offset = (HEADER_LEN + payloads.len() * SECTION_ROW_LEN) as u64;
    for (kind, payload) in &payloads {
        out.put_u32(kind.id());
        out.put_u32(0); // reserved
        out.put_u64(offset);
        out.put_u64(payload.len() as u64);
        out.put_u64(checksum64(payload));
        offset += payload.len() as u64;
    }
    for (_, payload) in &payloads {
        out.buf.extend_from_slice(payload);
    }

    // Trailer: whole-file checksum.
    let trailer = checksum64(&out.buf);
    out.put_u64(trailer);
    out.buf
}

// ---------------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------------

/// Validate framing + checksums and return the manifest, without decoding
/// payloads. Any corruption — flipped byte, truncation, wrong version —
/// surfaces here.
pub fn inspect_bytes(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated {
            context: "magic",
            needed: MAGIC.len() as u64,
            available: bytes.len() as u64,
        });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(SnapshotError::BadMagic { found });
    }
    let mut header = Reader::new(bytes, "header");
    let _ = header.take(MAGIC.len())?;
    let format_version = header.u32()?;
    if format_version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: format_version,
            supported: FORMAT_VERSION,
        });
    }
    let section_count = header.u32()? as usize;
    let corpus_fingerprint = header.u64()?;
    let embedder_fingerprint = header.u64()?;
    let entries = header.u64()?;
    let dims = header.u32()?;
    let _reserved = header.u32()?;
    if section_count != SectionKind::ALL.len() {
        return Err(SnapshotError::malformed(format!(
            "format v{format_version} carries {} sections, header claims {section_count}",
            SectionKind::ALL.len()
        )));
    }

    let framed = HEADER_LEN + section_count * SECTION_ROW_LEN + TRAILER_LEN;
    if bytes.len() < framed {
        return Err(SnapshotError::Truncated {
            context: "section table",
            needed: framed as u64,
            available: bytes.len() as u64,
        });
    }
    // Whole-file checksum first: one pass decides whether the bytes can be
    // trusted at all; everything after reads verified data.
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let stored = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
    let computed = checksum64(body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            scope: "file",
            expected: stored,
            found: computed,
        });
    }

    let mut table = Reader::new(
        &bytes[HEADER_LEN..HEADER_LEN + section_count * SECTION_ROW_LEN],
        "section table",
    );
    let mut sections = Vec::with_capacity(section_count);
    for expected_kind in SectionKind::ALL {
        let kind_id = table.u32()?;
        let _reserved = table.u32()?;
        let offset = table.u64()?;
        let len = table.u64()?;
        let checksum = table.u64()?;
        let kind = SectionKind::from_id(kind_id)
            .ok_or_else(|| SnapshotError::malformed(format!("unknown section kind {kind_id}")))?;
        if kind != expected_kind {
            return Err(SnapshotError::malformed(format!(
                "section order: found {} where {} belongs",
                kind.name(),
                expected_kind.name()
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            SnapshotError::malformed(format!("section {} length overflows", kind.name()))
        })?;
        if offset < framed as u64 - TRAILER_LEN as u64 || end > body.len() as u64 {
            return Err(SnapshotError::Truncated {
                context: kind.name(),
                needed: end,
                available: body.len() as u64,
            });
        }
        let payload = &bytes[offset as usize..end as usize];
        let found = checksum64(payload);
        if found != checksum {
            return Err(SnapshotError::ChecksumMismatch {
                scope: kind.name(),
                expected: checksum,
                found,
            });
        }
        sections.push(SectionInfo {
            kind,
            offset,
            len,
            checksum,
        });
    }
    Ok(Manifest {
        format_version,
        corpus_fingerprint,
        embedder_fingerprint,
        entries,
        dims,
        file_len: bytes.len() as u64,
        sections,
    })
}

fn section<'a>(bytes: &'a [u8], manifest: &Manifest, kind: SectionKind) -> &'a [u8] {
    let info = manifest
        .sections
        .iter()
        .find(|s| s.kind == kind)
        .expect("manifest validated every section of its version present");
    &bytes[info.offset as usize..(info.offset + info.len) as usize]
}

fn decode_embedder(payload: &[u8]) -> Result<TextEmbedder, SnapshotError> {
    let mut r = Reader::new(payload, "embedder");
    let config = EmbedConfig {
        dims: r.u32()? as usize,
        lexicon_coverage: r.f64()?,
        seed: r.u64()?,
        word_weight: r.f32()?,
        concept_weight: r.f32()?,
        trigram_weight: r.f32()?,
    };
    let n_concepts = r.count(5)?;
    let mut concepts = Vec::with_capacity(n_concepts);
    for _ in 0..n_concepts {
        let id = r.str()?.to_string();
        let n_alts = r.count(4)?;
        let mut alts = Vec::with_capacity(n_alts);
        for _ in 0..n_alts {
            let n_words = r.count(4)?;
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.str()?.to_string());
            }
            alts.push(words);
        }
        concepts.push(Concept { id, alts });
    }
    let n_known = r.count(8)?;
    let mut known = Vec::with_capacity(n_known);
    for _ in 0..n_known {
        known.push((r.u32()?, r.u32()?));
    }
    let n_phrases = r.count(12)?;
    let mut phrases = Vec::with_capacity(n_phrases);
    for _ in 0..n_phrases {
        phrases.push(PhraseRow {
            phrase: r.str()?.to_string(),
            concept: r.u32()?,
            alt: r.u32()?,
        });
    }
    if !r.is_empty() {
        return Err(SnapshotError::malformed(format!(
            "embedder section has {} trailing bytes",
            r.remaining()
        )));
    }
    TextEmbedder::from_parts(EmbedderParts {
        config,
        lexicon: Lexicon::from_concepts(concepts),
        known,
        phrases,
    })
    .map_err(|e| SnapshotError::malformed(format!("embedder: {e}")))
}

fn decode_strings(payload: &[u8]) -> Result<Vec<Arc<str>>, SnapshotError> {
    let mut r = Reader::new(payload, "strings");
    let n = r.count(4)?;
    let mut out: Vec<Arc<str>> = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(Arc::from(r.str()?));
    }
    if !r.is_empty() {
        return Err(SnapshotError::malformed(format!(
            "strings section has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(out)
}

fn decode_entries(payload: &[u8], strings: &[Arc<str>]) -> Result<Vec<LibEntry>, SnapshotError> {
    let mut r = Reader::new(payload, "entries");
    let n = r.count(20)?;
    let mut out = Vec::with_capacity(n);
    let fetch = |id: u32| -> Result<Arc<str>, SnapshotError> {
        strings.get(id as usize).cloned().ok_or_else(|| {
            SnapshotError::malformed(format!(
                "entry references string {id}, table has {}",
                strings.len()
            ))
        })
    };
    for _ in 0..n {
        let db = r.u32()? as usize;
        out.push(LibEntry {
            db,
            db_id: fetch(r.u32()?)?,
            schema_text: fetch(r.u32()?)?,
            nlq: fetch(r.u32()?)?,
            dvq: fetch(r.u32()?)?,
        });
    }
    if !r.is_empty() {
        return Err(SnapshotError::malformed(format!(
            "entries section has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(out)
}

fn decode_index(payload: &[u8], name: &'static str) -> Result<VectorIndex, SnapshotError> {
    let mut r = Reader::new(payload, name);
    let dims = r.u32()? as usize;
    let rows = r.u64()? as usize;
    let elems = rows.checked_mul(dims).ok_or_else(|| {
        SnapshotError::malformed(format!("{name}: {rows} rows × {dims} dims overflows"))
    })?;
    let data = r.f32s(elems)?;
    if !r.is_empty() {
        return Err(SnapshotError::malformed(format!(
            "{name} section has {} trailing bytes",
            r.remaining()
        )));
    }
    VectorIndex::from_parts(dims, data)
        .map_err(|e| SnapshotError::malformed(format!("{name}: {e}")))
}

/// Decode a complete snapshot: framing + checksums, then payloads, then
/// cross-section consistency.
pub fn decode(bytes: &[u8]) -> Result<LoadedSnapshot, SnapshotError> {
    let manifest = inspect_bytes(bytes)?;
    let embedder = decode_embedder(section(bytes, &manifest, SectionKind::Embedder))?;
    let strings = decode_strings(section(bytes, &manifest, SectionKind::Strings))?;
    let entries = decode_entries(section(bytes, &manifest, SectionKind::Entries), &strings)?;
    let nlq_index = decode_index(
        section(bytes, &manifest, SectionKind::NlqIndex),
        "nlq_index",
    )?;
    let dvq_index = decode_index(
        section(bytes, &manifest, SectionKind::DvqIndex),
        "dvq_index",
    )?;

    if entries.len() as u64 != manifest.entries {
        return Err(SnapshotError::malformed(format!(
            "header claims {} entries, entry table has {}",
            manifest.entries,
            entries.len()
        )));
    }
    if embedder.dims() as u32 != manifest.dims {
        return Err(SnapshotError::malformed(format!(
            "header claims {} dims, embedder has {}",
            manifest.dims,
            embedder.dims()
        )));
    }
    if !entries.is_empty() && nlq_index.dims() != embedder.dims() {
        return Err(SnapshotError::malformed(format!(
            "index stride {} disagrees with embedder dims {}",
            nlq_index.dims(),
            embedder.dims()
        )));
    }
    let library = EmbeddingLibrary::from_parts(entries, nlq_index, dvq_index)
        .map_err(SnapshotError::malformed)?;
    Ok(LoadedSnapshot {
        embedder,
        library,
        manifest,
    })
}

// ---------------------------------------------------------------------------
// filesystem entry points
// ---------------------------------------------------------------------------

fn io_err(path: &Path, source: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// Write a snapshot atomically: a *uniquely named* temp file + rename, so
/// a crashed writer never leaves a half-written artifact behind the real
/// name, and concurrent saves to the same path (two admin requests, or an
/// admin save racing write-through) each stage their own bytes instead of
/// interleaving in a shared `.tmp` — last rename wins with a complete file.
pub fn save(
    path: impl AsRef<Path>,
    library: &EmbeddingLibrary,
    embedder: &TextEmbedder,
) -> Result<Manifest, SnapshotError> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let path = path.as_ref();
    let bytes = encode(library, embedder);
    let manifest = inspect_bytes(&bytes).expect("freshly encoded snapshots are valid");
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = path.with_file_name(format!(
        "{file_name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        std::fs::remove_file(&tmp).ok();
        return Err(io_err(path, e));
    }
    Ok(manifest)
}

/// Read + fully decode a snapshot file.
pub fn load(path: impl AsRef<Path>) -> Result<LoadedSnapshot, SnapshotError> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    // Chaos hook: a fired `snapshot.corrupt` flips one payload byte, which
    // the checksum below must turn into a structured error — exactly what a
    // torn disk write would look like.
    if let Some(t2v_fault::FaultAction::Corrupt) =
        t2v_fault::fire(t2v_fault::FaultPoint::SnapshotCorrupt)
    {
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0xff;
        }
    }
    decode(&bytes)
}

/// Framing + checksum validation only (no payload reconstruction).
pub fn inspect(path: impl AsRef<Path>) -> Result<Manifest, SnapshotError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    inspect_bytes(&bytes)
}

/// Full verification: decode everything and re-derive both fingerprints
/// from the reconstructed state, proving the header's claims — not just
/// the bytes — are intact.
pub fn verify(path: impl AsRef<Path>) -> Result<Manifest, SnapshotError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    let loaded = decode(&bytes)?;
    let lib_fp = library_fingerprint(&loaded.library);
    if lib_fp != loaded.manifest.corpus_fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            which: "corpus",
            expected: loaded.manifest.corpus_fingerprint,
            found: lib_fp,
        });
    }
    let emb_fp = embedder_fingerprint(&loaded.embedder);
    if emb_fp != loaded.manifest.embedder_fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            which: "embedder",
            expected: loaded.manifest.embedder_fingerprint,
            found: emb_fp,
        });
    }
    Ok(loaded.manifest)
}
