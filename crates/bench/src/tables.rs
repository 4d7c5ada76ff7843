//! The paper's Tables 1-4 and Figure 3. Each function evaluates its models on
//! the shared context, prints the paper-style table beside the figures the
//! paper reports, and writes `results/<name>.csv`. The single-table binaries
//! call one each and `run_all` calls them all on one `Ctx`, so the reference
//! numbers below are the only copy.

use crate::{Ctx, ModelKind};
use t2v_eval::{csv_row, render_overall_table, render_table, write_csv, EvalRun};
use t2v_perturb::RobVariant;

/// The three robustness sets: the columns of Table 4 and of every
/// `[f64; 3]` below.
const ROB_SETS: [RobVariant; 3] = [RobVariant::Nlq, RobVariant::Schema, RobVariant::Both];

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

fn paper_rob(kind: ModelKind) -> [f64; 3] {
    PAPER_ROB
        .iter()
        .chain(&PAPER_ABLATIONS)
        .find(|(k, _)| *k == kind)
        .map(|&(_, v)| v)
        .expect("the paper reports every row we print")
}

/// Table 1 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq).
pub fn table1(ctx: &mut Ctx) {
    rob_table(ctx, 0, "Table 1: nvBench-Rob(nlq)", "table1.csv");
}

/// Table 2 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(schema).
pub fn table2(ctx: &mut Ctx) {
    rob_table(ctx, 1, "Table 2: nvBench-Rob(schema)", "table2.csv");
}

/// Table 3 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq,schema).
pub fn table3(ctx: &mut Ctx) {
    rob_table(ctx, 2, "Table 3: nvBench-Rob(nlq,schema)", "table3.csv");
}

/// The four systems on `ROB_SETS[set]`, all four metrics.
fn rob_table(ctx: &mut Ctx, set: usize, title: &str, csv_name: &str) {
    let runs: Vec<EvalRun> = PAPER_ROB
        .iter()
        .map(|&(kind, _)| ctx.evaluate(kind, ROB_SETS[set]))
        .collect();
    let paper: Vec<(&str, f64)> = PAPER_ROB
        .iter()
        .map(|(kind, overall)| (kind.label(), overall[set]))
        .collect();
    let refs: Vec<&EvalRun> = runs.iter().collect();
    println!("{}", render_table(title, &refs, &paper));
    save(ctx, csv_name, &runs);
}

/// Table 4 — ablation study: GRED vs w/o RTN&DBG, w/o RTN, w/o DBG (and
/// RGVisNet for scale) on the three robustness sets, overall accuracy.
pub fn table4(ctx: &mut Ctx) {
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for kind in [
        ModelKind::RgVisNet,
        ModelKind::Gred,
        ModelKind::GredGeneratorOnly,
        ModelKind::GredNoRtn,
        ModelKind::GredNoDbg,
    ] {
        let mut accs = Vec::new();
        for variant in ROB_SETS {
            let run = ctx.evaluate(kind, variant);
            accs.push(run.accuracies);
            runs.push(run);
        }
        rows.push((kind.label(), accs, Some(paper_rob(kind).to_vec())));
    }
    let table = render_overall_table(
        "Table 4: ablation study on nvBench-Rob (overall accuracy)",
        &["nlq", "schema", "(nlq,schema)"],
        &rows,
    );
    println!("{table}");
    save(ctx, "table4.csv", &runs);
}

/// Figure 3 — the accuracy collapse of prior text-to-vis models from
/// nvBench to nvBench-Rob(nlq,schema).
pub fn figure3(ctx: &mut Ctx) {
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (kind, original) in PAPER_ORIGINAL {
        let orig = ctx.evaluate(kind, RobVariant::Original);
        let both = ctx.evaluate(kind, RobVariant::Both);
        rows.push((
            kind.label(),
            vec![orig.accuracies, both.accuracies],
            Some(vec![original, paper_rob(kind)[2]]),
        ));
        runs.extend([orig, both]);
    }
    let table = render_overall_table(
        "Figure 3: accuracy collapse nvBench → nvBench-Rob(nlq,schema)",
        &["nvBench", "nvBench-Rob(nlq,schema)"],
        &rows,
    );
    println!("{table}");
    save(ctx, "figure3.csv", &runs);
}

fn save(ctx: &Ctx, csv_name: &str, runs: &[EvalRun]) {
    let rows: Vec<String> = runs.iter().map(csv_row).collect();
    write_csv(
        &ctx.results_dir.join(csv_name),
        "model,set,n,vis,data,axis,overall",
        &rows,
    )
    .expect("write results");
    println!("wrote results/{csv_name}");
}
