//! `qualsnap` — the paper's tables and figures, printed and recorded.
//!
//! ```sh
//! qualsnap [--profile paper|small|tiny] [--seed N] [--fresh] [--limit N]
//!          [--only figure2,table1,table2,table3,figure3,table4,table5,ablations]
//! ```
//!
//! Prints each selected section and rewrites, in `BENCH_quality.json` in
//! the working directory, the sections and cells this run computed; every
//! other byte of the file stays as it was. CI regenerates the GRED rows at
//! `--profile paper --seed 7 --only figure2,table4,ablations` and fails on
//! any difference.

use std::io::ErrorKind;
use std::process::exit;
use t2v_engine::Json;

const FILE: &str = "BENCH_quality.json";

fn main() {
    let mut ctx = t2v_bench::Ctx::from_args();
    let mut file = match std::fs::read_to_string(FILE) {
        Ok(text) => Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("qualsnap: {FILE} is not JSON: {e}");
            exit(1)
        }),
        Err(e) if e.kind() == ErrorKind::NotFound => Json::Obj(Default::default()),
        Err(e) => {
            eprintln!("qualsnap: cannot read {FILE}: {e}");
            exit(1)
        }
    };
    t2v_bench::snapshot(&mut ctx, &mut file);
    if let Err(e) = std::fs::write(FILE, file.pretty() + "\n") {
        eprintln!("qualsnap: cannot write {FILE}: {e}");
        exit(1)
    }
    println!("wrote {FILE}");
}
