//! Convenience driver: regenerates every table and figure in sequence through
//! the same functions the single-table binaries call, on one context. Models
//! are trained once; predictions are cached under results/cache/.

use t2v_bench::{tables, Ctx};

fn main() {
    let mut ctx = Ctx::from_args();
    println!("{}", t2v_corpus::CorpusStats::of(&ctx.corpus).render());
    tables::table1(&mut ctx);
    tables::table2(&mut ctx);
    tables::table3(&mut ctx);
    tables::figure3(&mut ctx);
    tables::table4(&mut ctx);
}
