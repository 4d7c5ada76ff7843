//! End-to-end integration tests spanning all workspace crates.

use text2vis::core::FnBackend;
use text2vis::dvq::components::ComponentMatch;
use text2vis::prelude::*;

fn fixture() -> (Corpus, NvBenchRob) {
    let corpus = generate(&CorpusConfig::tiny(11));
    let rob = build_rob(&corpus, 3);
    (corpus, rob)
}

/// GRED translates every dev question into a parseable DVQ and solves a
/// solid share of the unperturbed set.
#[test]
fn gred_end_to_end_on_original_set() {
    let (corpus, rob) = fixture();
    let gred = default_gred(&corpus, GredConfig::default());
    let mut parseable = 0;
    let mut exact = 0;
    let n = 40;
    for ex in rob.original.iter().take(n) {
        let db = rob.database(&corpus, ex);
        let out = gred.translate_final(&ex.nlq, db).expect("output");
        if let Ok(q) = parse(&out) {
            parseable += 1;
            if ComponentMatch::grade(&q, &ex.target).overall {
                exact += 1;
            }
        }
    }
    assert_eq!(parseable, n, "all outputs must parse");
    assert!(exact * 2 >= n, "{exact}/{n} exact");
}

/// The robustness story end to end: the debugger is what carries the
/// schema variant. `w/o DBG` is the same pass's last DVQ before the
/// debugger, `dvq_rtn.or(dvq_gen)`.
#[test]
fn gred_is_robust_where_the_debugger_matters() {
    let (corpus, rob) = fixture();
    let full = default_gred(&corpus, GredConfig::default());
    let no_dbg = FnBackend::new("w/o DBG", |nlq: &str, db: &Database| {
        let out = full.translate(nlq, db);
        out.dvq_rtn.or(out.dvq_gen)
    });
    let n = Some(60);
    let full_schema = evaluate_set(&full, &corpus, &rob, RobVariant::Schema, n);
    let nodbg_schema = evaluate_set(&no_dbg, &corpus, &rob, RobVariant::Schema, n);
    assert!(
        full_schema.accuracies.overall > nodbg_schema.accuracies.overall + 0.1,
        "debugger must carry the schema variant: {:.2} vs {:.2}",
        full_schema.accuracies.overall,
        nodbg_schema.accuracies.overall
    );
}

/// Every GRED output on every variant parses and executes (or fails with a
/// schema error, never a panic), mirroring Figure 1's execution step.
#[test]
fn gred_outputs_execute_or_fail_gracefully() {
    let (corpus, rob) = fixture();
    let gred = default_gred(&corpus, GredConfig::default());
    for variant in [RobVariant::Nlq, RobVariant::Schema, RobVariant::Both] {
        for ex in rob.set(variant).iter().take(15) {
            let db = rob.database(&corpus, ex);
            let Some(out) = gred.translate_final(&ex.nlq, db) else {
                continue;
            };
            let Ok(q) = parse(&out) else {
                panic!("unparseable GRED output: {out}")
            };
            let store = Store::synthesize(db, 5, 20);
            let _ = execute(&q, &store); // must not panic
        }
    }
}

/// The evaluation harness agrees with manual grading.
#[test]
fn harness_matches_manual_grading() {
    let (corpus, rob) = fixture();
    let gred = default_gred(&corpus, GredConfig::default());
    let run = evaluate_set(&gred, &corpus, &rob, RobVariant::Original, Some(25));
    let manual = run
        .records
        .iter()
        .filter(|r| {
            r.predicted
                .as_deref()
                .and_then(|t| parse(t).ok())
                .map(|q| ComponentMatch::grade(&q, &parse(&r.target).unwrap()).overall)
                .unwrap_or(false)
        })
        .count();
    assert_eq!(manual, (run.accuracies.overall * 25.0).round() as usize);
}

/// RGVisNet sits between the trained seq2seq models and GRED on the dual
/// variant — the paper's Figure 3 ordering.
#[test]
fn rgvisnet_collapses_but_less_than_nothing() {
    let (corpus, rob) = fixture();
    let rgvisnet = text2vis::baselines::RgVisNet::build(&corpus);
    let orig = evaluate_set(&rgvisnet, &corpus, &rob, RobVariant::Original, Some(60));
    let both = evaluate_set(&rgvisnet, &corpus, &rob, RobVariant::Both, Some(60));
    assert!(orig.accuracies.overall > 0.4);
    assert!(both.accuracies.overall < orig.accuracies.overall * 0.7);
}
