//! Table 2 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(schema).

fn main() {
    t2v_bench::tables::table2(&mut t2v_bench::Ctx::from_args());
}
