//! Figure 3 — the accuracy collapse of prior text-to-vis models from
//! nvBench to nvBench-Rob(nlq,schema).

fn main() {
    t2v_bench::tables::figure3(&mut t2v_bench::Ctx::from_args());
}
