//! The snapshot store's acceptance suite.
//!
//! * **Roundtrip**: build → encode → decode reproduces the library bytes
//!   (entries, interning, raw index stores), top-k results, and — the bar
//!   that matters — byte-identical GRED translations.
//! * **Corruption**: truncation at every boundary class, flipped bytes at
//!   sampled offsets, wrong magic/version, and foreign fingerprints all
//!   yield structured errors; nothing panics, nothing is silently accepted.

use proptest::prelude::*;
use std::sync::Arc;
use t2v_corpus::{generate, CorpusConfig};
use t2v_embed::{EmbedConfig, TextEmbedder, VectorIndex};
use t2v_gred::{EmbeddingLibrary, Gred, GredConfig, LibEntry};
use t2v_llm::{LlmConfig, SimulatedChatModel};
use t2v_store::{
    corpus_fingerprint, decode, encode, inspect_bytes, LibrarySource, Provenance, SnapshotError,
};

fn fixture() -> (t2v_corpus::Corpus, TextEmbedder, EmbeddingLibrary) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let embedder = TextEmbedder::default_model();
    let library = EmbeddingLibrary::build(&corpus, &embedder);
    (corpus, embedder, library)
}

#[test]
fn roundtrip_reproduces_library_bytes_and_interning() {
    let (corpus, embedder, library) = fixture();
    let bytes = encode(&library, &embedder);
    let loaded = decode(&bytes).expect("fresh snapshot decodes");

    assert_eq!(loaded.manifest.format_version, t2v_store::FORMAT_VERSION);
    assert_eq!(loaded.manifest.sections.len(), 5);
    assert_eq!(loaded.manifest.entries as usize, library.len());
    assert_eq!(loaded.manifest.dims as usize, embedder.dims());
    assert_eq!(
        loaded.manifest.corpus_fingerprint,
        corpus_fingerprint(&corpus)
    );

    // Entries: field-for-field equal…
    assert_eq!(loaded.library.len(), library.len());
    for (a, b) in loaded.library.entries.iter().zip(&library.entries) {
        assert_eq!(a.db, b.db);
        assert_eq!(a.db_id, b.db_id);
        assert_eq!(a.schema_text, b.schema_text);
        assert_eq!(a.nlq, b.nlq);
        assert_eq!(a.dvq, b.dvq);
    }
    // …with Arc interning reconstructed: entries of one database share one
    // schema allocation, exactly like a built library.
    for (a, b) in loaded
        .library
        .entries
        .iter()
        .zip(loaded.library.entries.iter().skip(1))
    {
        if a.db == b.db {
            assert!(Arc::ptr_eq(&a.schema_text, &b.schema_text));
            assert!(Arc::ptr_eq(&a.db_id, &b.db_id));
        }
    }

    // Index stores: bit-identical raw rows, so retrieval is bit-identical.
    assert_eq!(
        loaded.library.nlq_index.raw_rows().1,
        library.nlq_index.raw_rows().1
    );
    assert_eq!(
        loaded.library.dvq_index.raw_rows().1,
        library.dvq_index.raw_rows().1
    );
    // The restored index rebuilt its 8-bit prefilter sidecar from those rows
    // (it is derived state, never persisted); both retrieval directions,
    // every dev query, k on both sides of the row count and the chunked
    // scan must agree with the built library to the score bit.
    let rows = library.len();
    for (restored, built) in [
        (&loaded.library.nlq_index, &library.nlq_index),
        (&loaded.library.dvq_index, &library.dvq_index),
    ] {
        for ex in &corpus.dev {
            for text in [&ex.nlq, &ex.dvq_text] {
                let q = embedder.embed(text);
                for k in [1, 10, rows + 5] {
                    let want = built.top_k_prenormalized(&q, k);
                    for got in [
                        restored.top_k_prenormalized(&q, k),
                        restored.top_k_prenormalized_in(3, &q, k),
                    ] {
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(&want) {
                            assert_eq!((g.id, g.score.to_bits()), (w.id, w.score.to_bits()));
                        }
                    }
                }
            }
        }
    }

    // The embedder reconstructs behaviourally identical.
    for ex in corpus.dev.iter().take(5) {
        assert_eq!(loaded.embedder.embed(&ex.nlq), embedder.embed(&ex.nlq));
    }
}

#[test]
fn snapshot_loaded_gred_translates_byte_identically() {
    // The acceptance bar from the issue: a snapshot-loaded Gred must be
    // byte-identical to a freshly built one across the conformance set.
    let (corpus, embedder, library) = fixture();
    let bytes = encode(&library, &embedder);
    let loaded = decode(&bytes).unwrap();

    let model = SimulatedChatModel::new(LlmConfig::default());
    let built = Gred::from_parts(
        Arc::new(embedder),
        Arc::new(library),
        model.clone(),
        GredConfig::default(),
    );
    let warm = Gred::from_parts(
        Arc::new(loaded.embedder),
        Arc::new(loaded.library),
        model,
        GredConfig::default(),
    );
    for ex in corpus.dev.iter().take(20) {
        let db = &corpus.databases[ex.db];
        let a = built.translate(&ex.nlq, db);
        let b = warm.translate(&ex.nlq, db);
        assert_eq!(a, b, "snapshot-loaded GRED diverged on {:?}", ex.nlq);
        let dvq = b.final_dvq().expect("pipeline output");
        t2v_dvq::parse(dvq).expect("loaded library yields parseable DVQs");
    }
}

#[test]
fn library_source_resolves_and_verifies_provenance() {
    let corpus = generate(&CorpusConfig::tiny(7));
    let cfg = EmbedConfig::default();
    let dir = std::env::temp_dir().join(format!("t2vsnap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lib.t2vsnap");

    // Missing file: SnapshotOrBuild falls back to building…
    let fallback = LibrarySource::SnapshotOrBuild { path: path.clone() }
        .resolve(&corpus, &cfg)
        .unwrap();
    assert_eq!(fallback.provenance, Provenance::Built);
    // …while the strict Snapshot source fails loudly.
    let err = LibrarySource::Snapshot { path: path.clone() }
        .resolve(&corpus, &cfg)
        .unwrap_err();
    assert_eq!(err.code(), "io");

    // Written back, both sources load with snapshot provenance.
    t2v_store::save(&path, &fallback.library, &fallback.embedder).unwrap();
    t2v_store::verify(&path).expect("fresh snapshot verifies");
    for source in [
        LibrarySource::Snapshot { path: path.clone() },
        LibrarySource::SnapshotOrBuild { path: path.clone() },
    ] {
        let warm = source.resolve(&corpus, &cfg).unwrap();
        assert_eq!(warm.provenance, Provenance::Snapshot { path: path.clone() });
        assert_eq!(warm.corpus_fingerprint, fallback.corpus_fingerprint);
        assert_eq!(warm.embedder_fingerprint, fallback.embedder_fingerprint);
        assert_eq!(warm.library.len(), fallback.library.len());
    }

    // A different corpus rejects the snapshot: corpus fingerprint mismatch.
    let other = generate(&CorpusConfig::tiny(8));
    let err = LibrarySource::Snapshot { path: path.clone() }
        .resolve(&other, &cfg)
        .unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::FingerprintMismatch {
                which: "corpus",
                ..
            }
        ),
        "got {err}"
    );

    // A different embedder config rejects it too.
    let narrow = EmbedConfig {
        lexicon_coverage: 0.5,
        ..EmbedConfig::default()
    };
    let err = LibrarySource::Snapshot { path: path.clone() }
        .resolve(&corpus, &narrow)
        .unwrap_err();
    assert!(matches!(
        err,
        SnapshotError::FingerprintMismatch {
            which: "embedder",
            ..
        }
    ));

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// corruption
// ---------------------------------------------------------------------------

#[test]
fn wrong_magic_and_wrong_version_are_structured_errors() {
    let (_, embedder, library) = fixture();
    let good = encode(&library, &embedder);

    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        decode(&bad).unwrap_err(),
        SnapshotError::BadMagic { .. }
    ));

    let mut bad = good.clone();
    bad[8] = 0xEE; // format version little-endian low byte
    assert!(matches!(
        decode(&bad).unwrap_err(),
        SnapshotError::UnsupportedVersion { found, .. } if found != t2v_store::FORMAT_VERSION
    ));

    // Format v2 (the retired IVF sections) is refused at the version check.
    let mut bad = good.clone();
    bad[8] = 2;
    assert!(matches!(
        decode(&bad).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: 2, supported } if supported == t2v_store::FORMAT_VERSION
    ));

    // Not a snapshot at all.
    assert!(decode(b"").is_err());
    assert!(decode(b"short").is_err());
    assert!(decode(&[0u8; 64]).is_err());
}

#[test]
fn truncation_at_every_length_class_is_rejected() {
    let (_, embedder, library) = fixture();
    let good = encode(&library, &embedder);
    // Cut inside the header, the table, each payload region, and just
    // before the trailer — all must fail with a structured error.
    let cuts = [
        4,
        20,
        47,
        100,
        good.len() / 4,
        good.len() / 2,
        good.len() - 9,
        good.len() - 1,
    ];
    for cut in cuts {
        let err = decode(&good[..cut]).expect_err(&format!("cut at {cut} accepted"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }
            ),
            "cut {cut}: unexpected error {err}"
        );
    }
}

#[test]
fn every_sampled_bit_flip_is_caught() {
    let (_, embedder, library) = fixture();
    let good = encode(&library, &embedder);
    // Flipping any byte breaks the whole-file checksum (or an earlier
    // framing check). Sample densely in the framing region and sparsely in
    // the payloads — exhaustive flipping would hash ~1 GB in CI.
    let mut offsets: Vec<usize> = (0..good.len().min(300)).collect();
    offsets.extend((300..good.len()).step_by(211));
    offsets.push(good.len() - 1); // the trailer itself
    for off in offsets {
        let mut bad = good.clone();
        bad[off] ^= 0x40;
        assert!(
            decode(&bad).is_err(),
            "flip at {off}/{} was silently accepted",
            good.len()
        );
    }
}

#[test]
fn internally_inconsistent_snapshots_are_malformed() {
    // A hand-built library whose string references are valid but whose
    // index shape disagrees with the entry table: the loader must reject
    // it after decode, not trust the checksums alone.
    let embedder = TextEmbedder::default_model();
    let mut nlq_index = VectorIndex::new();
    let mut dvq_index = VectorIndex::new();
    nlq_index.add(embedder.embed("only one row"));
    dvq_index.add(embedder.embed("Visualize BAR"));
    let entry = |s: &str| -> Arc<str> { Arc::from(s) };
    let lib = EmbeddingLibrary::from_parts(
        vec![LibEntry {
            db: 0,
            db_id: entry("db"),
            schema_text: entry("schema"),
            nlq: entry("only one row"),
            dvq: entry("Visualize BAR"),
        }],
        nlq_index,
        dvq_index,
    )
    .unwrap();
    let mut bytes = encode(&lib, &embedder);
    // Mutate the header's entry count and re-seal the trailer checksum the
    // way a buggy writer with full file access could.
    bytes[32..40].copy_from_slice(&2u64.to_le_bytes());
    let trailer_at = bytes.len() - 8;
    let reseal = t2v_store::checksum64(&bytes[..trailer_at]);
    bytes[trailer_at..].copy_from_slice(&reseal.to_le_bytes());
    let err = decode(&bytes).unwrap_err();
    assert!(matches!(err, SnapshotError::Malformed { .. }), "got {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary synthetic libraries roundtrip exactly: encode → decode →
    /// re-encode yields byte-identical snapshots (canonical form), and the
    /// decoded library matches field-for-field.
    #[test]
    fn synthetic_library_roundtrips(
        texts in prop::collection::vec("[a-z ]{1,30}", 1..12),
        dbs in 1usize..4,
    ) {
        let embedder = TextEmbedder::default_model();
        let mut nlq_index = VectorIndex::new();
        let mut dvq_index = VectorIndex::new();
        let db_ids: Vec<Arc<str>> = (0..dbs).map(|i| Arc::from(format!("db_{i}").as_str())).collect();
        let schemas: Vec<Arc<str>> = (0..dbs).map(|i| Arc::from(format!("Table t{i}(a, b)").as_str())).collect();
        let mut entries = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let db = i % dbs;
            nlq_index.add(embedder.embed(text));
            dvq_index.add(embedder.embed(&format!("Visualize BAR {text}")));
            entries.push(LibEntry {
                db,
                db_id: Arc::clone(&db_ids[db]),
                schema_text: Arc::clone(&schemas[db]),
                nlq: Arc::from(text.as_str()),
                dvq: Arc::from(format!("Visualize BAR {text}").as_str()),
            });
        }
        let lib = EmbeddingLibrary::from_parts(entries, nlq_index, dvq_index).unwrap();
        let bytes = encode(&lib, &embedder);
        let manifest = inspect_bytes(&bytes).expect("valid framing");
        prop_assert_eq!(manifest.entries as usize, lib.len());
        let loaded = decode(&bytes).expect("roundtrip decodes");
        prop_assert_eq!(loaded.library.len(), lib.len());
        for (a, b) in loaded.library.entries.iter().zip(&lib.entries) {
            prop_assert_eq!(&a.db_id, &b.db_id);
            prop_assert_eq!(&a.nlq, &b.nlq);
            prop_assert_eq!(&a.dvq, &b.dvq);
            prop_assert_eq!(&a.schema_text, &b.schema_text);
        }
        prop_assert_eq!(loaded.library.nlq_index.raw_rows().1, lib.nlq_index.raw_rows().1);
        prop_assert_eq!(loaded.library.dvq_index.raw_rows().1, lib.dvq_index.raw_rows().1);
        // Canonical: re-encoding the decoded state reproduces the bytes.
        let again = encode(&loaded.library, &loaded.embedder);
        prop_assert_eq!(again, bytes);
    }

    /// Arbitrary byte soup never panics the loader and never decodes.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode(&bytes);
        let _ = inspect_bytes(&bytes);
    }

    /// Arbitrary mutations of a real snapshot never decode successfully
    /// into different content (checksums catch them) and never panic.
    #[test]
    fn mutated_real_snapshots_never_decode(
        off_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let embedder = TextEmbedder::default_model();
        let mut nlq = VectorIndex::new();
        let mut dvq = VectorIndex::new();
        nlq.add(embedder.embed("q"));
        dvq.add(embedder.embed("v"));
        let lib = EmbeddingLibrary::from_parts(
            vec![LibEntry {
                db: 0,
                db_id: Arc::from("d"),
                schema_text: Arc::from("s"),
                nlq: Arc::from("q"),
                dvq: Arc::from("v"),
            }],
            nlq,
            dvq,
        ).unwrap();
        let good = encode(&lib, &embedder);
        let off = ((good.len() - 1) as f64 * off_frac) as usize;
        let mut bad = good.clone();
        bad[off] ^= mask;
        prop_assert!(decode(&bad).is_err(), "mutation at {} accepted", off);
    }
}
