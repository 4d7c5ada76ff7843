//! Golden checksums over every GRED stage output of the four nvBench-Rob
//! sets: a change that claims "the same DVQs byte for byte" moves none of
//! these. The `paper(7)` corpus is what the benchmark's `eval_rob` runs
//! (`benchmark/src/inputs.rs`), so these are its 14 184 stage outputs; that
//! takes minutes unoptimised, so the paper-sized cases are `#[ignore]`d
//! under `cargo test -q` and CI runs them in the release profile:
//!
//! ```text
//! cargo test --release -p text2vis --test golden_translate -- --include-ignored
//! ```
//!
//! The simulated model keeps a memo of what it derives from prompt context,
//! so the file also checks that no stage output depends on which questions
//! came before, or on how many threads filled the memo, and pins RGVisNet's
//! answers, which share the model's generation code.

use text2vis::baselines::RgVisNet;
use text2vis::eval::evaluate_set_parallel;
use text2vis::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

const VARIANTS: [RobVariant; 4] = [
    RobVariant::Original,
    RobVariant::Nlq,
    RobVariant::Schema,
    RobVariant::Both,
];

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Fold outputs into an FNV-1a-64 state: an output that is missing hashes
/// as `"-"`, and every output is closed by one `0xff` step.
fn fold<'a>(h: u64, outputs: impl IntoIterator<Item = Option<&'a str>>) -> u64 {
    outputs.into_iter().fold(h, |h, out| {
        fnv(fnv(h, out.unwrap_or("-").as_bytes()), &[0xff])
    })
}

/// Every example of `Original`, `Nlq`, `Schema`, `Both`, in that order, as
/// (question, database).
fn rob_questions<'a>(corpus: &'a Corpus, rob: &'a NvBenchRob) -> Vec<(&'a str, &'a Database)> {
    VARIANTS
        .iter()
        .flat_map(|&v| rob.set(v))
        .map(|ex| (ex.nlq.as_str(), rob.database(corpus, ex)))
        .collect()
}

/// FNV-1a-64 over `dvq_gen`, `dvq_rtn`, `dvq_dbg` of every example of the
/// four sets.
fn checksum(config: &CorpusConfig, seed: u64) -> u64 {
    let corpus = generate(config);
    let rob = build_rob(&corpus, seed ^ 0x0b);
    let gred = default_gred(&corpus, GredConfig::default());
    rob_questions(&corpus, &rob)
        .into_iter()
        .fold(FNV_OFFSET, |h, (nlq, db)| {
            let out = gred.translate(nlq, db);
            fold(
                h,
                [&out.dvq_gen, &out.dvq_rtn, &out.dvq_dbg].map(|s| s.as_deref()),
            )
        })
}

/// Each question's three stage outputs, in the order of `questions`.
fn stage_outputs<'a>(
    gred: &Gred<text2vis::llm::SimulatedChatModel>,
    questions: impl Iterator<Item = &'a (&'a str, &'a Database)>,
) -> Vec<[Option<String>; 3]> {
    questions
        .map(|(nlq, db)| {
            let out = gred.translate(nlq, db);
            [out.dvq_gen, out.dvq_rtn, out.dvq_dbg]
        })
        .collect()
}

/// The model's context memo fills from whatever came before; the answers
/// must not. One GRED translates the four sets forward, then — warm —
/// backward; a fresh one translates them backward. All three agree.
fn stage_outputs_ignore_call_order(config: &CorpusConfig) {
    let corpus = generate(config);
    let rob = build_rob(&corpus, 7 ^ 0x0b);
    let questions = rob_questions(&corpus, &rob);
    let gred = default_gred(&corpus, GredConfig::default());
    let forward = stage_outputs(&gred, questions.iter());
    let mut warm_backward = stage_outputs(&gred, questions.iter().rev());
    warm_backward.reverse();
    let fresh = default_gred(&corpus, GredConfig::default());
    let mut fresh_backward = stage_outputs(&fresh, questions.iter().rev());
    fresh_backward.reverse();
    for (i, (nlq, _)) in questions.iter().enumerate() {
        assert_eq!(forward[i], warm_backward[i], "warm, backward: {nlq}");
        assert_eq!(forward[i], fresh_backward[i], "fresh, backward: {nlq}");
    }
}

#[test]
fn stage_outputs_do_not_depend_on_call_order() {
    stage_outputs_ignore_call_order(&CorpusConfig::tiny(7));
}

#[test]
#[ignore = "3 × 4 728 paper-sized translations: run in the release profile (see module doc)"]
fn paper_stage_outputs_do_not_depend_on_call_order() {
    stage_outputs_ignore_call_order(&CorpusConfig::paper(7));
}

/// The serving pool's pattern: worker threads share one GRED, so they fill
/// one cold memo concurrently. The answers are those of one caller.
#[test]
fn a_shared_cold_memo_answers_as_one_caller_does() {
    let corpus = generate(&CorpusConfig::tiny(7));
    let rob = build_rob(&corpus, 7 ^ 0x0b);
    let shared = default_gred(&corpus, GredConfig::default());
    let alone = default_gred(&corpus, GredConfig::default());
    for variant in VARIANTS {
        let parallel = evaluate_set_parallel(&shared, &corpus, &rob, variant, None);
        let sequential = evaluate_set(&alone, &corpus, &rob, variant, None);
        let predicted = |run: &text2vis::eval::EvalRun| -> Vec<Option<String>> {
            run.records.iter().map(|r| r.predicted.clone()).collect()
        };
        assert_eq!(predicted(&parallel), predicted(&sequential), "{variant:?}");
        assert_eq!(parallel.accuracies, sequential.accuracies, "{variant:?}");
    }
}

/// RGVisNet revises its prototype with the simulated model's generation
/// code but keeps no context memo; its answers on the four `tiny(7)` sets
/// are pinned to what they were before the memo existed.
#[test]
fn rgvisnet_outputs_are_pinned() {
    let corpus = generate(&CorpusConfig::tiny(7));
    let rob = build_rob(&corpus, 7 ^ 0x0b);
    let rgvisnet = RgVisNet::build(&corpus);
    let h = rob_questions(&corpus, &rob)
        .into_iter()
        .fold(FNV_OFFSET, |h, (nlq, db)| {
            fold(h, [rgvisnet.predict(nlq, db).as_deref()])
        });
    assert_eq!(format!("{h:016x}"), "f3c6149a9e7ff28d");
}

#[test]
fn tiny_corpus_stage_outputs_are_pinned() {
    assert_eq!(
        format!("{:016x}", checksum(&CorpusConfig::tiny(7), 7)),
        "8e0d4e5cebe40aef"
    );
}

#[test]
#[ignore = "4 728 paper-sized translations: run in the release profile (see module doc)"]
fn paper_corpus_stage_outputs_are_pinned() {
    for (seed, want) in [
        (7, "fc4faa308a96471e"),
        (11, "ba1650b1c192c053"),
        (23, "a7cfe30ae4fd7d37"),
    ] {
        assert_eq!(
            format!("{:016x}", checksum(&CorpusConfig::paper(7), seed)),
            want,
            "rob seed {seed}"
        );
    }
}
