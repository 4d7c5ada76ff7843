//! Table 4 — ablation study: GRED vs w/o RTN&DBG, w/o RTN, w/o DBG on the
//! three robustness sets (overall accuracy).

fn main() {
    t2v_bench::tables::table4(&mut t2v_bench::Ctx::from_args());
}
