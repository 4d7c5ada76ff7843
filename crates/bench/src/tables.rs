//! The paper's Tables 1-5, Figures 2 and 3, and the design ablations. Each
//! function prints the paper-style table beside the figures the paper
//! reports. Tables 1-4 and Figure 3 read their cells from the shared context
//! (`qualsnap` writes those cells out); Figure 2, Table 5 and the ablations
//! return what they print as a `BENCH_quality.json` section. The reference
//! numbers below are the only copy.

use crate::context::{set_key, Ctx, ModelKind, GRED_ROWS};
use t2v_corpus::{CorpusStats, Lexicon};
use t2v_embed::{EmbedConfig, TextEmbedder};
use t2v_engine::{chart, execute, to_vegalite, Json, Store};
use t2v_eval::{evaluate_set, render_overall_table, render_table, Accuracies, EvalRun, Tally};
use t2v_gred::{Gred, GredConfig};
use t2v_llm::{LlmConfig, SimulatedChatModel};
use t2v_perturb::RobVariant;

/// The three robustness sets: the columns of Tables 1-3 and of every
/// `[f64; 3]` below.
const ROB_SETS: [RobVariant; 3] = [RobVariant::Nlq, RobVariant::Schema, RobVariant::Both];

/// The unperturbed set and the three robustness sets: Table 4's columns.
const ALL_SETS: [RobVariant; 4] = [
    RobVariant::Original,
    RobVariant::Nlq,
    RobVariant::Schema,
    RobVariant::Both,
];

/// Overall accuracy (%) the paper reports on the three sets (Tables 1-3;
/// Table 4 and Figure 3 quote them again).
const PAPER_ROB: [(ModelKind, [f64; 3]); 4] = [
    (ModelKind::Seq2Vis, [34.52, 14.55, 5.50]),
    (ModelKind::Transformer, [36.04, 29.61, 12.77]),
    (ModelKind::RgVisNet, [45.87, 44.91, 24.81]),
    (ModelKind::Gred, [59.98, 61.93, 54.85]),
];

/// Table 4's ablated GRED variants on the same three sets.
const PAPER_ABLATIONS: [(ModelKind, [f64; 3]); 3] = [
    (ModelKind::GredGeneratorOnly, [62.77, 42.13, 36.46]),
    (ModelKind::GredNoRtn, [61.08, 62.10, 51.90]),
    (ModelKind::GredNoDbg, [61.68, 42.47, 38.57]),
];

/// Figure 3's accuracy on the unperturbed nvBench, in the figure's row order.
const PAPER_ORIGINAL: [(ModelKind, f64); 3] = [
    (ModelKind::RgVisNet, 85.17),
    (ModelKind::Transformer, 68.69),
    (ModelKind::Seq2Vis, 79.73),
];

/// The paper's figure for `kind` on `variant`, where it reports one.
fn paper_figure(kind: ModelKind, variant: RobVariant) -> Option<f64> {
    if variant == RobVariant::Original {
        return PAPER_ORIGINAL
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|&(_, v)| v);
    }
    let set = ROB_SETS.iter().position(|&v| v == variant)?;
    PAPER_ROB
        .iter()
        .chain(&PAPER_ABLATIONS)
        .find(|(k, _)| *k == kind)
        .map(|(_, v)| v[set])
}

/// Every figure the paper reports, as `model → set → overall %`, beside the
/// `cells` it is compared with.
pub(crate) fn paper() -> Json {
    let mut out = Json::Obj(Default::default());
    for (kind, _) in PAPER_ROB.iter().chain(&PAPER_ABLATIONS) {
        for variant in ALL_SETS {
            if let Some(v) = paper_figure(*kind, variant) {
                crate::set_path(&mut out, &[kind.label(), set_key(variant)], Json::Num(v));
            }
        }
    }
    out
}

/// The run settings a section was computed under.
pub(crate) fn stamp(ctx: &Ctx, limit: Option<usize>) -> Json {
    Json::obj([
        ("profile", Json::str(ctx.profile.to_string())),
        ("seed", Json::Num(ctx.seed as f64)),
        ("limit", limit.map_or(Json::Null, |n| Json::Num(n as f64))),
    ])
}

/// The integer counts behind a set of accuracies.
pub(crate) fn counts(t: &Tally) -> Json {
    let num = |n: usize| Json::Num(n as f64);
    Json::obj([
        ("n", num(t.n)),
        ("vis", num(t.vis)),
        ("data", num(t.data)),
        ("axis", num(t.axis)),
        ("overall", num(t.overall)),
    ])
}

/// Figure 2 — nvBench-Rob dataset statistics: chart-type histogram,
/// hardness histogram, database/table/column counts.
pub fn figure2(ctx: &Ctx) -> Json {
    let stats = CorpusStats::of(&ctx.corpus);
    println!(
        "== Figure 2: nvBench-Rob statistics (profile={}, seed={}) ==\n",
        ctx.profile, ctx.seed
    );
    println!("{}", stats.render());
    println!("paper reference: Bar 891, Pie 88, Line 51, Scatter 48, Stacked 60,");
    println!("  GroupLine 11, GroupScatter 33; hardness 286/475/282/139;");
    println!("  104 databases / 552 tables (avg 5.31) / 3050 columns (avg 5.53)");
    let num = |n: usize| Json::Num(n as f64);
    Json::obj([
        ("stamp", stamp(ctx, None)),
        (
            "charts",
            Json::Obj(
                (stats.pairs_per_chart.iter())
                    .map(|(c, n)| (c.display_name().to_string(), num(*n)))
                    .collect(),
            ),
        ),
        (
            "hardness",
            Json::Obj(
                (stats.pairs_per_hardness.iter())
                    .map(|(h, n)| (h.display_name().to_string(), num(*n)))
                    .collect(),
            ),
        ),
        ("pairs", num(stats.total_pairs)),
        ("databases", num(stats.databases)),
        ("tables", num(stats.tables)),
        ("columns", num(stats.columns)),
    ])
}

/// Table 1 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq).
pub fn table1(ctx: &mut Ctx) {
    rob_table(ctx, RobVariant::Nlq, "Table 1: nvBench-Rob(nlq)");
}

/// Table 2 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(schema).
pub fn table2(ctx: &mut Ctx) {
    rob_table(ctx, RobVariant::Schema, "Table 2: nvBench-Rob(schema)");
}

/// Table 3 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq,schema).
pub fn table3(ctx: &mut Ctx) {
    rob_table(ctx, RobVariant::Both, "Table 3: nvBench-Rob(nlq,schema)");
}

/// The four systems on one robustness set, all four metrics.
fn rob_table(ctx: &mut Ctx, variant: RobVariant, title: &str) {
    let runs: Vec<EvalRun> = PAPER_ROB
        .iter()
        .map(|&(kind, _)| ctx.evaluate(kind, variant).run.clone())
        .collect();
    let paper: Vec<(&str, f64)> = PAPER_ROB
        .iter()
        .filter_map(|&(kind, _)| Some((kind.label(), paper_figure(kind, variant)?)))
        .collect();
    let refs: Vec<&EvalRun> = runs.iter().collect();
    println!("{}", render_table(title, &refs, &paper));
}

/// Table 4 — ablation study: GRED vs w/o RTN&DBG, w/o RTN, w/o DBG (and
/// RGVisNet for scale) on the unperturbed set and the three robustness
/// sets, overall accuracy; then the stage ledger the four GRED rows imply,
/// which it returns as the `ledger` section.
pub fn table4(ctx: &mut Ctx) -> Json {
    let mut kinds = vec![ModelKind::RgVisNet];
    kinds.extend(GRED_ROWS);
    overall_table(
        ctx,
        "Table 4: ablation study on nvBench-Rob (overall accuracy)",
        &["original", "nlq", "schema", "(nlq,schema)"],
        &kinds,
        &ALL_SETS,
    );

    println!("Stage ledger: questions a stage fixed / broke (overall match)\n");
    println!(
        "{:<14}{:>12}{:>14}{:>14}{:>14}{:>14}",
        "set", "RTN changed", "RTN w/o DBG", "RTN w/ DBG", "DBG w/o RTN", "DBG w/ RTN"
    );
    let mut ledger = Json::Obj(Default::default());
    for variant in ALL_SETS {
        let [gred, gen, no_rtn, no_dbg] =
            GRED_ROWS.map(|kind| ctx.evaluate(kind, variant).run.clone());
        let changed = (no_dbg.records.iter().zip(&gen.records))
            .filter(|(a, b)| a.predicted != b.predicted)
            .count();
        let steps = [
            (&gen, &no_dbg),
            (&no_rtn, &gred),
            (&gen, &no_rtn),
            (&no_dbg, &gred),
        ]
        .map(|(from, to)| flips(from, to));
        print!("{:<14}{changed:>12}", set_key(variant));
        for (fixed, broke) in steps {
            print!("{:>14}", format!("+{fixed}/-{broke}"));
        }
        println!();
        let num = |n: usize| Json::Num(n as f64);
        let [rtn_alone, rtn_after, dbg_alone, dbg_after] =
            steps.map(|(fixed, broke)| Json::obj([("fixed", num(fixed)), ("broke", num(broke))]));
        let retuner = [
            ("changed", num(changed)),
            ("no_debugger", rtn_alone),
            ("with_debugger", rtn_after),
        ];
        let debugger = [("no_retuner", dbg_alone), ("with_retuner", dbg_after)];
        let entry = Json::obj([
            ("retuner", Json::obj(retuner)),
            ("debugger", Json::obj(debugger)),
            ("stamp", stamp(ctx, ctx.limit)),
        ]);
        ledger.set(set_key(variant), entry);
    }
    println!();
    ledger
}

/// How many questions going from `from`'s answer to `to`'s turned from a
/// miss into an overall match (fixed), and from a match into a miss (broke).
fn flips(from: &EvalRun, to: &EvalRun) -> (usize, usize) {
    let pairs = from.records.iter().zip(&to.records);
    pairs.fold((0, 0), |(fixed, broke), (a, b)| {
        match (a.overall_match, b.overall_match) {
            (false, true) => (fixed + 1, broke),
            (true, false) => (fixed, broke + 1),
            _ => (fixed, broke),
        }
    })
}

/// Figure 3 — the accuracy collapse of prior text-to-vis models from
/// nvBench to nvBench-Rob(nlq,schema).
pub fn figure3(ctx: &mut Ctx) {
    overall_table(
        ctx,
        "Figure 3: accuracy collapse nvBench → nvBench-Rob(nlq,schema)",
        &["nvBench", "nvBench-Rob(nlq,schema)"],
        &PAPER_ORIGINAL.map(|(kind, _)| kind),
        &[RobVariant::Original, RobVariant::Both],
    );
}

/// Overall accuracy of each model (rows) on each set (columns).
fn overall_table(
    ctx: &mut Ctx,
    title: &str,
    columns: &[&str],
    kinds: &[ModelKind],
    sets: &[RobVariant],
) {
    let rows: Vec<_> = kinds
        .iter()
        .map(|&kind| {
            let accs: Vec<Accuracies> = sets
                .iter()
                .map(|&v| ctx.evaluate(kind, v).run.accuracies)
                .collect();
            let paper = sets.iter().map(|&v| paper_figure(kind, v)).collect();
            (kind.label(), accs, paper)
        })
        .collect();
    println!("{}", render_overall_table(title, columns, &rows));
}

/// Table 5 / Figure 5 — case study: one schema-renamed question in its four
/// forms, and the DVQ each model produces for its dual-variant form, with
/// chart execution (or "no chart" on failure).
pub fn table5(ctx: &mut Ctx) -> Json {
    // Pick a dual-variant case whose target executes and whose schema was
    // renamed under the referenced columns (mirrors the paper's
    // "department_id by first name" histogram case).
    let pick = {
        let set = ctx.rob.set(RobVariant::Both);
        let limit = ctx.limit.unwrap_or(set.len()).min(set.len());
        (0..limit)
            .find(|&i| {
                let ex = &set[i];
                let orig = &ctx.rob.original[ex.base];
                ex.target_text != orig.target_text && ex.target.where_clause.is_none()
            })
            .unwrap_or(0)
    };
    let both = &ctx.rob.set(RobVariant::Both)[pick];
    let (base, target_text) = (both.base, both.target_text.clone());
    let db = ctx.rob.renamed[both.db].clone();
    let store = Store::synthesize(&db, ctx.seed, 24);

    println!("== Table 5: case study (dual-variant example #{base}) ==\n");
    // The sets are index-aligned: entry `pick` of each is one source pair.
    let mut forms = Json::Obj(Default::default());
    for variant in ALL_SETS {
        let ex = &ctx.rob.set(variant)[pick];
        println!("{:<24} NLQ: {}", variant.label(), ex.nlq);
        println!("{:<24} DVQ: {}", "", ex.target_text);
        let form = Json::obj([
            ("nlq", Json::str(ex.nlq.as_str())),
            ("dvq", Json::str(ex.target_text.as_str())),
        ]);
        forms.set(set_key(variant), form);
    }
    println!();
    let target = t2v_dvq::parse(&target_text).expect("target parses");
    match execute(&target, &store) {
        Ok(rs) => {
            println!("Target chart:\n{}", chart::render(target.chart, &rs, 40));
            println!(
                "Vega-Lite spec (target):\n{}\n",
                to_vegalite(&target, &rs).pretty()
            );
        }
        Err(e) => println!("Target failed to execute: {e}\n"),
    }

    let mut answers = Json::Obj(Default::default());
    for (kind, _) in PAPER_ROB {
        let predicted = ctx
            .evaluate(kind, RobVariant::Both)
            .predictions
            .get(pick)
            .cloned()
            .flatten();
        println!("--- {} ---", kind.label());
        match &predicted {
            None => println!("(no output) → ✘ no chart\n"),
            Some(text) => {
                println!("DVQ: {text}");
                match t2v_dvq::parse(text) {
                    Err(e) => println!("unparseable ({e}) → ✘ no chart\n"),
                    Ok(q) => match execute(&q, &store) {
                        Err(e) => println!("execution failed ({e}) → ✘ no chart\n"),
                        Ok(rs) => {
                            let m = t2v_dvq::components::ComponentMatch::grade(&q, &target);
                            let verdict = if m.overall {
                                "✔"
                            } else {
                                "✘ (chart differs)"
                            };
                            println!("{}{verdict}\n", chart::render(q.chart, &rs, 40));
                        }
                    },
                }
            }
        }
        answers.set(kind.label(), predicted.map_or(Json::Null, Json::Str));
    }
    Json::obj([
        ("stamp", stamp(ctx, ctx.limit)),
        ("example", Json::Num(base as f64)),
        ("forms", forms),
        ("answers", answers),
    ])
}

/// Design-choice ablations called out in DESIGN.md §5, each on the first 250
/// examples of nvBench-Rob(nlq,schema) unless `--limit` says otherwise:
///
/// * retrieval depth K ∈ {1, 5, 10, 20} vs GRED overall accuracy;
/// * ascending vs descending example order in the generation prompt (§4.2);
/// * the LLM's and the retrieval embedder's lexicon coverage.
pub fn ablations(ctx: &Ctx) -> Json {
    let limit = Some(ctx.limit.unwrap_or(250));
    let evaluate = |config, embed, llm| {
        let embedder = TextEmbedder::new(Lexicon::builtin(), embed);
        let gred = Gred::prepare(&ctx.corpus, embedder, SimulatedChatModel::new(llm), config);
        evaluate_set(&gred, &ctx.corpus, &ctx.rob, RobVariant::Both, limit)
    };
    // One setting of each sweep is the default configuration; it is
    // evaluated once and its row is written into every sweep.
    let default = evaluate(
        GredConfig::default(),
        EmbedConfig::default(),
        LlmConfig::default(),
    );
    let row = |label: String, setting: Json, run: Option<EvalRun>| {
        let run = run.as_ref().unwrap_or(&default);
        println!("  {label}: overall {:.2}%", run.accuracies.overall * 100.0);
        let mut row = counts(&run.tally);
        row.set("setting", setting);
        row
    };

    println!("== Ablation: retrieval depth K (nvBench-Rob(nlq,schema)) ==");
    let k = [1usize, 5, 10, 20].map(|k| {
        let config = GredConfig {
            k,
            ..GredConfig::default()
        };
        let run = (k != GredConfig::default().k)
            .then(|| evaluate(config, EmbedConfig::default(), LlmConfig::default()));
        row(format!("K = {k:>2}"), Json::Num(k as f64), run)
    });

    println!("\n== Ablation: example order in the generation prompt ==");
    let order = [("ascending (paper)", true), ("descending", false)].map(|(label, ascending)| {
        let config = GredConfig {
            ascending_order: ascending,
            ..GredConfig::default()
        };
        let run = (ascending != GredConfig::default().ascending_order)
            .then(|| evaluate(config, EmbedConfig::default(), LlmConfig::default()));
        row(format!("{label:<20}"), Json::Bool(ascending), run)
    });

    println!("\n== Ablation: LLM semantic (synonym) coverage ==");
    let llm = [0.5f64, 0.7, 0.88, 1.0].map(|coverage| {
        let mut llm = LlmConfig::default();
        let run = (coverage != llm.embed.lexicon_coverage).then(|| {
            llm.embed.lexicon_coverage = coverage;
            evaluate(GredConfig::default(), EmbedConfig::default(), llm)
        });
        row(format!("coverage {coverage:.2}"), Json::Num(coverage), run)
    });

    println!("\n== Ablation: retrieval-embedder lexicon coverage ==");
    let embed = [0.0f64, 0.9].map(|coverage| {
        let embed = EmbedConfig {
            lexicon_coverage: coverage,
            ..EmbedConfig::default()
        };
        let run = (coverage != EmbedConfig::default().lexicon_coverage)
            .then(|| evaluate(GredConfig::default(), embed, LlmConfig::default()));
        row(format!("coverage {coverage:.1}"), Json::Num(coverage), run)
    });
    println!();

    Json::obj([
        ("stamp", stamp(ctx, limit)),
        ("k", Json::Arr(k.into())),
        ("prompt_order", Json::Arr(order.into())),
        ("llm_coverage", Json::Arr(llm.into())),
        ("embed_coverage", Json::Arr(embed.into())),
    ])
}
