//! Cross-crate invariants (property-style, seeded over many corpora).

use text2vis::dvq::normalize::semantically_equal;
use text2vis::prelude::*;

/// Rebuilding a target DVQ against the renamed schema preserves semantics
/// up to identifier renaming: structure (chart/clause shapes) must survive.
#[test]
fn rename_preserves_query_structure() {
    for seed in [3u64, 9, 21] {
        let corpus = generate(&CorpusConfig::tiny(seed));
        let rob = build_rob(&corpus, seed ^ 1);
        for (o, s) in rob.original.iter().zip(rob.schema.iter()) {
            assert_eq!(o.target.chart, s.target.chart);
            assert_eq!(o.target.predicate_count(), s.target.predicate_count());
            assert_eq!(o.target.group_by.len(), s.target.group_by.len());
            assert_eq!(o.target.limit, s.target.limit);
            assert_eq!(o.target.joins.len(), s.target.joins.len());
        }
    }
}

/// Every dev target parses, round-trips through the printer, and executes
/// against its own database.
#[test]
fn every_dev_target_is_well_formed_and_executable() {
    let corpus = generate(&CorpusConfig::tiny(13));
    for ex in &corpus.dev {
        let db = &corpus.databases[ex.db];
        let reparsed = parse(&ex.dvq_text).expect("target parses");
        assert!(semantically_equal(&reparsed, &ex.dvq));
        let store = Store::synthesize(db, 1, 15);
        execute(&ex.dvq, &store)
            .unwrap_or_else(|e| panic!("target must execute: {} ({e})", ex.dvq_text));
    }
}

/// Perturbed NLQ sets keep their pairing with targets: the nlq-variant
/// target equals the original, the schema-variant target parses against the
/// renamed database.
#[test]
fn rob_sets_stay_aligned() {
    let corpus = generate(&CorpusConfig::tiny(17));
    let rob = build_rob(&corpus, 2);
    for i in 0..corpus.dev.len() {
        assert_eq!(rob.original[i].base, i);
        assert_eq!(rob.nlq[i].target_text, rob.original[i].target_text);
        assert_eq!(rob.schema[i].target_text, rob.both[i].target_text);
        let db = &rob.renamed[rob.schema[i].db];
        let store = Store::synthesize(db, 1, 10);
        execute(&rob.schema[i].target, &store)
            .unwrap_or_else(|e| panic!("renamed target must execute: {e}"));
    }
}

/// The trait-conformance suite over every backend `t2v-serve` can
/// register, and over the two trained baselines only the evaluation tables
/// run: byte-stable repeated translations, declared stage names in order,
/// parseable final DVQs, streaming agreement, and structured empty-input
/// errors — the executable contract of the backend API.
#[test]
fn every_registered_backend_passes_the_conformance_suite() {
    use std::sync::Arc;
    use text2vis::baselines::{BaselineTrainConfig, Seq2Vis, TransformerBaseline};
    use text2vis::core::conformance;
    use text2vis::serve::{ServeConfig, ServerState, KNOWN_BACKENDS};

    let corpus = generate(&CorpusConfig::tiny(7));
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config
        .set("backends", &KNOWN_BACKENDS.join(","))
        .expect("every known backend is constructible");
    let state = ServerState::from_corpus(&corpus, config).expect("state builds");
    assert_eq!(state.registry.len(), KNOWN_BACKENDS.len());

    let requests: Vec<TranslateRequest<'_>> = corpus
        .dev
        .iter()
        .take(4)
        .map(|ex| TranslateRequest::new(&ex.nlq, &corpus.databases[ex.db]))
        .collect();
    // A minimal training profile: the contract, not model quality, is
    // under test.
    let train_cfg = BaselineTrainConfig {
        seed: 7,
        max_train: 64,
        epochs: 3,
        hidden: 24,
        emb: 16,
        ..BaselineTrainConfig::fast()
    };
    let trained: [(&str, Arc<dyn Translator>); 2] = [
        ("seq2vis", Arc::new(Seq2Vis::train(&corpus, &train_cfg))),
        (
            "transformer",
            Arc::new(TransformerBaseline::train(&corpus, &train_cfg)),
        ),
    ];
    let served = state.registry.iter().map(|(id, b)| (id, Arc::clone(b)));
    for (id, backend) in served.chain(trained) {
        let problems = conformance::check_backend(id, backend.as_ref(), &requests);
        assert!(problems.is_empty(), "backend '{id}':\n{problems:#?}");
    }

    // The registry's GRED is the paper's pipeline, unchanged: identical
    // final DVQs on the same corpus.
    let (_, _, gred) = state.registry.resolve(Some("gred")).unwrap();
    for req in &requests {
        let via_registry = gred.translate(req).expect("GRED output").dvq;
        let direct = state
            .gred
            .translate_final(req.nlq, req.db)
            .expect("GRED output");
        assert_eq!(via_registry, direct);
    }
}

/// The annotation debugger's anchor property: a renamed database's
/// annotations mention the original (primary) lexicalisations, so stale
/// names can be mapped back.
#[test]
fn annotations_anchor_primary_forms() {
    use text2vis::llm::{prompts, ChatModel, ChatParams, LlmConfig, SimulatedChatModel};
    let corpus = generate(&CorpusConfig::tiny(19));
    let rob = build_rob(&corpus, 4);
    let model = SimulatedChatModel::new(LlmConfig::default());
    let db = &rob.renamed[0];
    let ann = model.complete(&prompts::annotation_prompt(db), &ChatParams::annotation());
    // At least half of the renamed columns carry a parenthesised gloss.
    let glossed = ann
        .lines()
        .filter(|l| l.contains('(') && l.contains(':'))
        .count();
    let total: usize = db.tables.iter().map(|t| t.columns.len()).sum();
    assert!(
        glossed * 2 >= total,
        "only {glossed}/{total} columns glossed:\n{ann}"
    );
}
