//! # t2v-bench — the paper's quality ruler
//!
//! One binary, `qualsnap`, prints every table and figure of the paper's
//! evaluation (the functions in [`tables`]) and records what it computed in
//! the committed `BENCH_quality.json`. It accepts `--seed`,
//! `--profile paper|small|tiny`, `--fresh`, `--limit` and `--only`, and
//! exits 2 on anything else. Performance is measured by the repository
//! benchmark (`benchmark/`), not here.

pub mod context;
pub mod tables;

pub use context::{set_key, Cell, Ctx, ModelKind, GRED_ROWS};

use t2v_engine::Json;
use t2v_eval::{by_chart, by_hardness, error_profile};

/// Prints one section and writes what it computed beyond its cells.
type Section = fn(&mut Ctx, &mut Json);

/// Every section, in the order a full run prints them, each named after the
/// program that once printed it alone.
pub const SECTIONS: [(&str, Section); 8] = [
    ("figure2", |ctx, file| {
        file.set("stats", tables::figure2(ctx))
    }),
    ("table1", |ctx, _| tables::table1(ctx)),
    ("table2", |ctx, _| tables::table2(ctx)),
    ("table3", |ctx, _| tables::table3(ctx)),
    ("figure3", |ctx, _| tables::figure3(ctx)),
    ("table4", |ctx, file| {
        file.set("ledger", tables::table4(ctx))
    }),
    ("table5", |ctx, file| {
        file.set("table5", tables::table5(ctx))
    }),
    ("ablations", |ctx, file| {
        file.set("ablations", tables::ablations(ctx))
    }),
];

/// Run `ctx`'s sections, printing each table, and write what this run
/// computed into `file`: Figure 2 under `stats`, Table 4's stage ledger under
/// `ledger`, Table 5 under `table5`, the ablations under `ablations`, every
/// evaluated cell under `cells.<model>.<set>`, and the paper's figures under
/// `paper`. Everything else in `file` is left as it was.
pub fn snapshot(ctx: &mut Ctx, file: &mut Json) {
    for (name, section) in SECTIONS {
        if ctx.sections.contains(&name) {
            section(ctx, file);
        }
    }
    for cell in ctx.cells() {
        let path = ["cells", cell.kind.label(), set_key(cell.run.variant)];
        set_path(file, &path, cell_json(ctx, cell));
    }
    file.set("paper", tables::paper());
}

/// A cell's counts, their breakdowns by hardness and chart type, what its
/// misses got wrong first, and the settings it was computed under.
fn cell_json(ctx: &Ctx, cell: &Cell) -> Json {
    let set = &ctx.rob.set(cell.run.variant)[..cell.predictions.len()];
    let preds = &cell.predictions;
    let mut out = tables::counts(&cell.run.tally);
    let hardness = by_hardness(&ctx.corpus, set, preds).groups.into_iter();
    let hardness = hardness.map(|(h, t)| (h.display_name().to_string(), tables::counts(&t)));
    out.set("by_hardness", Json::Obj(hardness.collect()));
    let charts = by_chart(set, preds).groups.into_iter();
    let charts = charts.map(|(c, t)| (c.display_name().to_string(), tables::counts(&t)));
    out.set("by_chart", Json::Obj(charts.collect()));
    let e = error_profile(set, preds);
    let num = |n: usize| Json::Num(n as f64);
    let errors = Json::obj([
        ("total", num(e.total)),
        ("exact", num(e.exact)),
        ("no_output", num(e.no_output)),
        ("unparseable", num(e.unparseable)),
        ("vis_wrong", num(e.vis_wrong)),
        ("axis_wrong", num(e.axis_wrong)),
        ("data_wrong", num(e.data_wrong)),
        ("style_only", num(e.style_only)),
    ]);
    out.set("errors", errors);
    out.set("stamp", tables::stamp(ctx, ctx.limit));
    out
}

/// Set `value` at `path` under `node`, making the objects on the way.
pub(crate) fn set_path(node: &mut Json, path: &[&str], value: Json) {
    let (last, parents) = path.split_last().expect("a non-empty path");
    let mut node = node;
    for key in parents {
        if node.get(key).and_then(Json::as_obj).is_none() {
            node.set(key, Json::Obj(Default::default()));
        }
        let Json::Obj(map) = node else {
            unreachable!("set makes an object")
        };
        node = map.get_mut(*key).expect("just set");
    }
    node.set(last, value);
}
