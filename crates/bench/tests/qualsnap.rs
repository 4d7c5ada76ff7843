//! `qualsnap`'s Table 4 cells against the evaluation harness, and the file
//! it writes against itself. No figure is pinned: the harness is the oracle.

use t2v_baselines::RgVisNet;
use t2v_bench::context::parse_args;
use t2v_bench::{set_key, snapshot, Ctx, ModelKind};
use t2v_core::Translator;
use t2v_engine::Json;
use t2v_eval::{evaluate_set, Tally};
use t2v_gred::{default_gred, GredConfig};
use t2v_perturb::RobVariant;

fn tiny_table4() -> Ctx {
    let args = ["--profile", "tiny", "--seed", "7", "--only", "table4"].map(String::from);
    Ctx::new(parse_args(&args).unwrap())
}

#[test]
fn table4_cells_equal_the_harness_and_the_file_reproduces() {
    let mut ctx = tiny_table4();
    let mut file = Json::Obj(Default::default());
    snapshot(&mut ctx, &mut file);

    let gred = |config| Box::new(default_gred(&ctx.corpus, config)) as Box<dyn Translator>;
    let models = [
        (ModelKind::Gred, gred(GredConfig::default())),
        (
            ModelKind::GredNoRtn,
            gred(GredConfig::default().without_retuner()),
        ),
        (
            ModelKind::GredNoDbg,
            gred(GredConfig::default().without_debugger()),
        ),
        (
            ModelKind::GredGeneratorOnly,
            gred(GredConfig::default().generator_only()),
        ),
        (ModelKind::RgVisNet, Box::new(RgVisNet::build(&ctx.corpus))),
    ];
    let sets = [
        RobVariant::Original,
        RobVariant::Nlq,
        RobVariant::Schema,
        RobVariant::Both,
    ];
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
        }
    }
    let cells = file.get("cells").and_then(Json::as_obj).unwrap();
    assert_eq!(cells.len(), models.len(), "table4 evaluates only its rows");

    // A second run over the file it wrote rewrites it to the same bytes,
    // and the bytes read back as the value they were written from.
    let text = file.pretty();
    let mut again = Json::parse(&text).unwrap();
    assert_eq!(again, file);
    snapshot(&mut tiny_table4(), &mut again);
    assert_eq!(again.pretty(), text);
}
