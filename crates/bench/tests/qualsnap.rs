//! `qualsnap`'s Table 4 cells against the evaluation harness, and the file
//! it writes against itself. No figure is pinned: the harness is the oracle.
//! The ablated GRED rows come from one pass in `qualsnap`; here each is
//! rebuilt from its definition, calling the debugger on `dvq_gen` for every
//! question.

use t2v_baselines::RgVisNet;
use t2v_bench::context::parse_args;
use t2v_bench::{set_key, snapshot, Ctx, ModelKind};
use t2v_core::{FnBackend, Translator};
use t2v_corpus::Database;
use t2v_engine::Json;
use t2v_eval::{evaluate_set, EvalRun, Tally};
use t2v_gred::{default_gred, GredConfig};
use t2v_perturb::RobVariant;

fn table4_at(profile: &str) -> Ctx {
    let args = ["--profile", profile, "--seed", "7", "--only", "table4"].map(String::from);
    Ctx::new(parse_args(&args).unwrap())
}

#[test]
fn table4_cells_equal_the_harness_and_the_file_reproduces() {
    table4_cells_equal_the_harness_at("tiny");
}

/// The same oracle at the profile CI's quality ruler commits
/// (`BENCH_quality.json`); run with `--include-ignored` in the release
/// profile.
#[test]
#[ignore = "paper(7): release profile, --include-ignored"]
fn table4_cells_equal_the_harness_and_the_file_reproduces_at_paper_scale() {
    table4_cells_equal_the_harness_at("paper");
}

fn table4_cells_equal_the_harness_at(profile: &str) {
    let mut ctx = table4_at(profile);
    let mut file = Json::Obj(Default::default());
    snapshot(&mut ctx, &mut file);

    let gred = default_gred(&ctx.corpus, GredConfig::default());
    let gred = &gred;
    // `w/o RTN&DBG`, `w/o RTN` and `w/o DBG` from their definitions.
    let by_definition = move |nlq: &str, db: &Database| {
        let out = gred.translate(nlq, db);
        let no_rtn = out.dvq_gen.as_ref().and_then(|gen| gred.debug(gen, db));
        [
            out.dvq_gen.clone(),
            no_rtn.or(out.dvq_gen.clone()),
            out.dvq_rtn.or(out.dvq_gen),
        ]
    };
    let ablated = |row: usize| {
        let f = move |nlq: &str, db: &Database| by_definition(nlq, db).into_iter().nth(row)?;
        Box::new(FnBackend::new("ablated", f)) as Box<dyn Translator>
    };
    let models = [
        (
            ModelKind::Gred,
            Box::new(gred.clone()) as Box<dyn Translator>,
        ),
        (ModelKind::GredGeneratorOnly, ablated(0)),
        (ModelKind::GredNoRtn, ablated(1)),
        (ModelKind::GredNoDbg, ablated(2)),
        (ModelKind::RgVisNet, Box::new(RgVisNet::build(&ctx.corpus))),
    ];
    let sets = [
        RobVariant::Original,
        RobVariant::Nlq,
        RobVariant::Schema,
        RobVariant::Both,
    ];
    let mut runs: Vec<(ModelKind, EvalRun)> = Vec::new();
    for (kind, model) in &models {
        for variant in sets {
            let want = evaluate_set(model.as_ref(), &ctx.corpus, &ctx.rob, variant, None);
            let at = format!("cells.{}.{}", kind.label(), set_key(variant));
            let cell = (file.get("cells"))
                .and_then(|c| c.get(kind.label()))
                .and_then(|m| m.get(set_key(variant)))
                .unwrap_or_else(|| panic!("no {at}"));
            let count = |key| cell.get(key).and_then(Json::as_f64).unwrap() as usize;
            let got = Tally {
                n: count("n"),
                vis: count("vis"),
                data: count("data"),
                axis: count("axis"),
                overall: count("overall"),
            };
            assert_eq!(got, want.tally, "{at}");
            assert_eq!(got.accuracies(), want.accuracies, "{at}");
            runs.push((*kind, want));
        }
    }

    // The stage ledger, recounted from the oracle runs.
    for variant in sets {
        let run_of = |kind| {
            let (_, run) = (runs.iter())
                .find(|(k, r)| *k == kind && r.variant == variant)
                .unwrap();
            run
        };
        let (gred, gen, no_rtn, no_dbg) = (
            run_of(ModelKind::Gred),
            run_of(ModelKind::GredGeneratorOnly),
            run_of(ModelKind::GredNoRtn),
            run_of(ModelKind::GredNoDbg),
        );
        let flips = |from: &EvalRun, to: &EvalRun| {
            let pairs = from.records.iter().zip(&to.records);
            let count = |a, b| {
                (pairs.clone())
                    .filter(|(x, y)| (x.overall_match, y.overall_match) == (a, b))
                    .count() as f64
            };
            Json::obj([
                ("fixed", Json::Num(count(false, true))),
                ("broke", Json::Num(count(true, false))),
            ])
        };
        let changed = (no_dbg.records.iter().zip(&gen.records))
            .filter(|(a, b)| a.predicted != b.predicted)
            .count();
        let at = |path: &[&str]| {
            let mut node = file.get("ledger").and_then(|l| l.get(set_key(variant)));
            for key in path {
                node = node.and_then(|n| n.get(key));
            }
            node.unwrap_or_else(|| panic!("no ledger.{}.{}", set_key(variant), path.join(".")))
        };
        let set = set_key(variant);
        assert_eq!(
            at(&["retuner", "changed"]).as_f64(),
            Some(changed as f64),
            "{set}"
        );
        assert_eq!(
            at(&["retuner", "no_debugger"]),
            &flips(gen, no_dbg),
            "{set}"
        );
        assert_eq!(
            at(&["retuner", "with_debugger"]),
            &flips(no_rtn, gred),
            "{set}"
        );
        assert_eq!(
            at(&["debugger", "no_retuner"]),
            &flips(gen, no_rtn),
            "{set}"
        );
        assert_eq!(
            at(&["debugger", "with_retuner"]),
            &flips(no_dbg, gred),
            "{set}"
        );
    }
    let cells = file.get("cells").and_then(Json::as_obj).unwrap();
    assert_eq!(cells.len(), models.len(), "table4 evaluates only its rows");

    // A second run over the file it wrote rewrites it to the same bytes,
    // and the bytes read back as the value they were written from.
    let text = file.pretty();
    let mut again = Json::parse(&text).unwrap();
    assert_eq!(again, file);
    snapshot(&mut table4_at(profile), &mut again);
    assert_eq!(again.pretty(), text);
}
