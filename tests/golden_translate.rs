//! Golden checksums over every GRED stage output of the four nvBench-Rob
//! sets: a change that claims "the same DVQs byte for byte" moves none of
//! these. The `paper(7)` corpus is what the benchmark's `eval_rob` runs
//! (`benchmark/src/inputs.rs`), so these are its 14 184 stage outputs; that
//! takes minutes unoptimised, so the paper-sized cases are `#[ignore]`d
//! under `cargo test -q` and CI runs them in the release profile:
//!
//! ```text
//! cargo test --release -p text2vis --test golden_translate -- --include-ignored
//! ```

use text2vis::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a-64 over `dvq_gen`, `dvq_rtn`, `dvq_dbg` of every example of
/// `Original`, `Nlq`, `Schema`, `Both` in that order; a stage that produced
/// nothing hashes as `"-"`, and every stage is closed by one `0xff` step.
fn checksum(config: &CorpusConfig, seed: u64) -> u64 {
    let corpus = generate(config);
    let rob = build_rob(&corpus, seed ^ 0x0b);
    let gred = default_gred(&corpus, GredConfig::default());
    let mut h = FNV_OFFSET;
    for variant in [
        RobVariant::Original,
        RobVariant::Nlq,
        RobVariant::Schema,
        RobVariant::Both,
    ] {
        for ex in rob.set(variant) {
            let out = gred.translate(&ex.nlq, rob.database(&corpus, ex));
            for stage in [&out.dvq_gen, &out.dvq_rtn, &out.dvq_dbg] {
                h = fnv(h, stage.as_deref().unwrap_or("-").as_bytes());
                h = fnv(h, &[0xff]);
            }
        }
    }
    h
}

#[test]
fn tiny_corpus_stage_outputs_are_pinned() {
    assert_eq!(
        format!("{:016x}", checksum(&CorpusConfig::tiny(7), 7)),
        "8e0d4e5cebe40aef"
    );
}

#[test]
#[ignore = "4 728 paper-sized translations: run in the release profile (see module doc)"]
fn paper_corpus_stage_outputs_are_pinned() {
    for (seed, want) in [
        (7, "fc4faa308a96471e"),
        (11, "ba1650b1c192c053"),
        (23, "a7cfe30ae4fd7d37"),
    ] {
        assert_eq!(
            format!("{:016x}", checksum(&CorpusConfig::paper(7), seed)),
            want,
            "rob seed {seed}"
        );
    }
}
