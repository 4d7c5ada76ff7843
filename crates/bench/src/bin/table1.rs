//! Table 1 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq).

fn main() {
    t2v_bench::tables::table1(&mut t2v_bench::Ctx::from_args());
}
