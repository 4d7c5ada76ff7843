//! GRED's preparatory phase (paper §4.1): the embedding vector library over
//! the nvBench training split, and the annotated database collection.
//!
//! Building the library is the dominant cost of `Gred::prepare` (two
//! embeddings per training example, each normalised and SQ8-encoded on
//! insert), so it fans that work across threads — every worker fills partial
//! indexes for its windows of the training split — and shares per-database
//! schema text via `Arc<str>` instead of cloning a full `String` into every
//! entry. Output is byte-identical to a sequential build: the partial
//! indexes are appended in training order.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use t2v_corpus::{Corpus, Database};
use t2v_embed::{TextEmbedder, VectorIndex};
use t2v_llm::api::{ChatModel, ChatParams};
use t2v_llm::prompts;

/// One training example held by the library.
///
/// Every string field is a shared `Arc<str>`: entries of one database alias
/// a single schema/db-id allocation, and a snapshot-loaded library interns
/// all of them through one deduplicated string table.
#[derive(Debug, Clone)]
pub struct LibEntry {
    pub db: usize,
    pub db_id: Arc<str>,
    /// Rendered prompt schema, shared across all entries of one database.
    pub schema_text: Arc<str>,
    pub nlq: Arc<str>,
    pub dvq: Arc<str>,
}

/// Training examples embedded and indexed per work item of the parallel
/// library build.
const BUILD_WINDOW: usize = 256;

/// The embedding vector library: every training NLQ and DVQ embedded with
/// the pre-trained text embedding model.
pub struct EmbeddingLibrary {
    pub entries: Vec<LibEntry>,
    pub nlq_index: VectorIndex,
    pub dvq_index: VectorIndex,
}

impl EmbeddingLibrary {
    /// Embed the whole training split of `corpus`, in parallel.
    pub fn build(corpus: &Corpus, embedder: &TextEmbedder) -> Self {
        // Schema text and id per database (many examples share one).
        let schema_texts: Vec<Arc<str>> = corpus
            .databases
            .iter()
            .map(|db| Arc::from(db.render_prompt_schema().as_str()))
            .collect();
        let db_ids: Vec<Arc<str>> = corpus
            .databases
            .iter()
            .map(|db| Arc::from(db.id.as_str()))
            .collect();

        // Embed and index NLQ and DVQ pairs across threads, one partial
        // index pair per window; `par_map` preserves window order.
        let dims = embedder.dims();
        let windows: Vec<&[_]> = corpus.train.chunks(BUILD_WINDOW).collect();
        let parts = t2v_parallel::par_map(&windows, |window| {
            let mut nlq = VectorIndex::with_capacity_dims(window.len(), dims);
            let mut dvq = VectorIndex::with_capacity_dims(window.len(), dims);
            let mut scratch = vec![0f32; dims];
            for ex in window.iter() {
                embedder.embed_into(&ex.nlq, &mut scratch);
                nlq.add_slice(&scratch);
                embedder.embed_into(&ex.dvq_text, &mut scratch);
                dvq.add_slice(&scratch);
            }
            (nlq, dvq)
        });
        let mut nlq_index = VectorIndex::with_capacity_dims(corpus.train.len(), dims);
        let mut dvq_index = VectorIndex::with_capacity_dims(corpus.train.len(), dims);
        for (nlq, dvq) in parts {
            nlq_index.append(nlq);
            dvq_index.append(dvq);
        }

        let mut entries = Vec::with_capacity(corpus.train.len());
        for ex in &corpus.train {
            entries.push(LibEntry {
                db: ex.db,
                db_id: Arc::clone(&db_ids[ex.db]),
                schema_text: Arc::clone(&schema_texts[ex.db]),
                nlq: Arc::from(ex.nlq.as_str()),
                dvq: Arc::from(ex.dvq_text.as_str()),
            });
        }
        EmbeddingLibrary {
            entries,
            nlq_index,
            dvq_index,
        }
    }

    /// Reassemble a library from pre-built parts — the snapshot-restore
    /// path. Validates that the three components describe the same number
    /// of examples; everything else (normalisation, interning) is the
    /// caller's contract.
    pub fn from_parts(
        entries: Vec<LibEntry>,
        nlq_index: VectorIndex,
        dvq_index: VectorIndex,
    ) -> Result<Self, String> {
        if nlq_index.len() != entries.len() || dvq_index.len() != entries.len() {
            return Err(format!(
                "library shape mismatch: {} entries, {} NLQ rows, {} DVQ rows",
                entries.len(),
                nlq_index.len(),
                dvq_index.len()
            ));
        }
        if !entries.is_empty() && nlq_index.dims() != dvq_index.dims() {
            return Err(format!(
                "index stride mismatch: NLQ {} vs DVQ {}",
                nlq_index.dims(),
                dvq_index.dims()
            ));
        }
        Ok(EmbeddingLibrary {
            entries,
            nlq_index,
            dvq_index,
        })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Lazily populated collection of database annotations, generated by the
/// LLM with the C.1 prompt (`temperature=0.0`, zero penalties).
pub struct AnnotationStore {
    /// One write-once cell per database id: the map's lock is held only to
    /// find or add a cell, never across a model call.
    cache: Mutex<HashMap<String, Arc<OnceLock<Arc<str>>>>>,
}

impl AnnotationStore {
    pub fn new() -> Self {
        AnnotationStore {
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The annotation text for `db`, generating it on first use. A hit is
    /// one lock acquisition and a reference-count bump; callers that race
    /// on a database's first use run the prompt once and share its answer.
    pub fn annotation_for(&self, db: &Database, model: &dyn ChatModel) -> Arc<str> {
        let cell = {
            let mut cache = self.cache.lock();
            match cache.get(&db.id) {
                Some(cell) => match cell.get() {
                    Some(text) => return Arc::clone(text),
                    None => Arc::clone(cell),
                },
                None => Arc::clone(cache.entry(db.id.clone()).or_default()),
            }
        };
        Arc::clone(cell.get_or_init(|| {
            let msgs = prompts::annotation_prompt(db);
            model.complete(&msgs, &ChatParams::annotation()).into()
        }))
    }

    /// Databases whose annotation has been generated.
    pub fn cached(&self) -> usize {
        let cache = self.cache.lock();
        cache.values().filter(|cell| cell.get().is_some()).count()
    }
}

impl Default for AnnotationStore {
    fn default() -> Self {
        AnnotationStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use t2v_corpus::{generate, CorpusConfig};
    use t2v_llm::api::ChatMessage;
    use t2v_llm::{LlmConfig, SimulatedChatModel};

    #[test]
    fn library_indexes_every_training_pair() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let embedder = TextEmbedder::default_model();
        let lib = EmbeddingLibrary::build(&corpus, &embedder);
        assert_eq!(lib.len(), corpus.train.len());
        assert_eq!(lib.nlq_index.len(), lib.dvq_index.len());
    }

    #[test]
    fn nlq_retrieval_finds_itself() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let embedder = TextEmbedder::default_model();
        let lib = EmbeddingLibrary::build(&corpus, &embedder);
        let q = embedder.embed(&corpus.train[5].nlq);
        let hits = lib.nlq_index.top_k(&q, 1);
        assert_eq!(hits[0].id, 5);
        assert!(hits[0].score > 0.99);
    }

    #[test]
    fn parallel_build_is_deterministic() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let embedder = TextEmbedder::default_model();
        let a = EmbeddingLibrary::build(&corpus, &embedder);
        let b = EmbeddingLibrary::build(&corpus, &embedder);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.nlq, y.nlq);
            assert_eq!(x.schema_text, y.schema_text);
        }
        for id in 0..a.nlq_index.len() {
            assert_eq!(a.nlq_index.get(id), b.nlq_index.get(id));
        }
    }

    #[test]
    fn schema_text_is_shared_per_database() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let embedder = TextEmbedder::default_model();
        let lib = EmbeddingLibrary::build(&corpus, &embedder);
        for (a, b) in lib.entries.iter().zip(lib.entries.iter().skip(1)) {
            if a.db == b.db {
                // Same allocation, not merely equal text.
                assert!(Arc::ptr_eq(&a.schema_text, &b.schema_text));
            }
        }
    }

    #[test]
    fn annotations_are_cached_per_database() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let model = SimulatedChatModel::new(LlmConfig::default());
        let store = AnnotationStore::new();
        let a = store.annotation_for(&corpus.databases[0], &model);
        let b = store.annotation_for(&corpus.databases[0], &model);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.cached(), 1);
        assert!(a.contains("Table "));
    }

    /// Eight threads ask for one database's annotation at once: the C.1
    /// prompt runs once and all eight hold the same allocation.
    #[test]
    fn racing_first_callers_run_the_annotation_prompt_once() {
        const THREADS: usize = 8;
        struct Counting {
            inner: SimulatedChatModel,
            calls: AtomicUsize,
            /// Threads that are past the start line. A call stays in
            /// flight until all of them are, so the rest reach the store
            /// while the answer does not exist yet.
            asking: AtomicUsize,
        }
        impl ChatModel for Counting {
            fn complete(&self, messages: &[ChatMessage], params: &ChatParams) -> String {
                self.calls.fetch_add(1, Ordering::SeqCst);
                while self.asking.load(Ordering::SeqCst) < THREADS {
                    std::thread::yield_now();
                }
                self.inner.complete(messages, params)
            }
        }

        let corpus = generate(&CorpusConfig::tiny(7));
        let model = Counting {
            inner: SimulatedChatModel::new(LlmConfig::default()),
            calls: AtomicUsize::new(0),
            asking: AtomicUsize::new(0),
        };
        let store = AnnotationStore::new();
        let start = Barrier::new(THREADS);
        let texts: Vec<Arc<str>> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        model.asking.fetch_add(1, Ordering::SeqCst);
                        store.annotation_for(&corpus.databases[0], &model)
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(model.calls.load(Ordering::SeqCst), 1);
        assert!(texts.iter().all(|t| Arc::ptr_eq(t, &texts[0])));
        assert_eq!(store.cached(), 1);
    }
}
