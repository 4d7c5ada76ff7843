//! Table 3 — Vis/Data/Axis/Overall accuracy on nvBench-Rob(nlq,schema).

fn main() {
    t2v_bench::tables::table3(&mut t2v_bench::Ctx::from_args());
}
