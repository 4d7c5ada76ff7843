//! # t2v-store — the persistent artifact store
//!
//! GRED's embedding library is the dominant cost of every cold start: two
//! embeddings per training example, re-derived from the synthetic corpus on
//! each process launch. This crate turns the built artifact — the
//! pre-normalised [`t2v_embed::VectorIndex`] pair, the `Arc<str>`-interned
//! [`t2v_gred::LibEntry`] table, and the embedder's lexicon/coverage/
//! stemmed-phrase tables — into a durable, versioned, checksummed on-disk
//! snapshot, so a restart costs one file read instead of an O(corpus)
//! rebuild.
//!
//! * [`format`] — the wire format: magic + version + fingerprints + section
//!   table + FNV-64 checksums, with an alignment-safe loader that
//!   reconstructs the library without re-embedding anything.
//! * [`fingerprint`] — provenance: corpus and embedder fingerprints that
//!   pin a snapshot to exactly what the consumer would have built.
//! * [`source`] — the [`LibrarySource`] seam (`Build` | `Snapshot` |
//!   `SnapshotOrBuild`) every consumer resolves instead of calling
//!   `EmbeddingLibrary::build` directly, plus the [`EmbedderPool`] that
//!   dedups shared embedder tables across tenants by fingerprint.
//! * [`scan`] — directory scanning for snapshot catalogs: every
//!   `*.t2vsnap` under a directory with its inspected manifest.
//! * [`error`] — the structured failure taxonomy; corrupt or foreign bytes
//!   can never panic the loader.
//!
//! The correctness bar (conformance-tested): a `Gred` assembled from a
//! loaded snapshot translates **byte-identically** to one assembled from a
//! fresh build.
//!
//! ```no_run
//! use t2v_corpus::{generate, CorpusConfig};
//! use t2v_embed::EmbedConfig;
//! use t2v_store::{save, LibrarySource};
//!
//! let corpus = generate(&CorpusConfig::tiny(7));
//! let built = LibrarySource::Build
//!     .resolve(&corpus, &EmbedConfig::default())
//!     .unwrap();
//! save("library.t2vsnap", &built.library, &built.embedder).unwrap();
//! // Next start: O(file read) instead of O(corpus).
//! let warm = LibrarySource::Snapshot { path: "library.t2vsnap".into() }
//!     .resolve(&corpus, &EmbedConfig::default())
//!     .unwrap();
//! assert_eq!(warm.corpus_fingerprint, built.corpus_fingerprint);
//! ```

pub mod error;
pub mod fingerprint;
pub mod format;
pub mod scan;
pub mod source;
mod wire;

pub use error::SnapshotError;
pub use fingerprint::{
    corpus_fingerprint, embedder_fingerprint, expected_embedder_fingerprint, library_fingerprint,
};
pub use format::{
    decode, encode, inspect, inspect_bytes, load, save, verify, LoadedSnapshot, Manifest,
    SectionInfo, SectionKind, FORMAT_VERSION, MAGIC,
};
pub use scan::{scan_snapshots, ScanEntry, SNAPSHOT_EXT};
pub use source::{EmbedderPool, LibrarySource, Provenance, ResolvedLibrary};
/// The format's section/trailer checksum (exposed so tests and tooling can
/// re-seal deliberately corrupted snapshots).
pub use wire::checksum64;
