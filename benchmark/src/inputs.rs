//! Everything the program is fed: the paper-profile corpus, and from
//! `--seed` its nvBench-Rob sets, the choice and order of the serve
//! workloads' requests, and the clustered vectors of `retrieve_large`.

use std::collections::HashSet;
use std::time::Instant;
use t2v_corpus::{generate, Corpus, CorpusConfig};
use t2v_embed::VectorIndex;
use t2v_engine::Json;
use t2v_perturb::{build_rob, NvBenchRob, RobExample};
use t2v_serve::normalize_nlq;

/// The corpus is the same on every seed. Accuracy over a generated corpus
/// moves 4% (interquartile) from one corpus seed to the next, against 1–2%
/// from one perturbation seed to the next over a pinned corpus; pinning it
/// is what lets `quality` carry a 5% bound instead of a 10% one. The seed
/// still decides every perturbed question, renamed schema, request choice
/// and request order.
pub const CORPUS_SEED: u64 = 7;

/// The shared text-to-vis inputs, with what each generator cost.
pub struct TextInputs {
    pub corpus: Corpus,
    pub rob: NvBenchRob,
    pub seed: u64,
    pub corpus_ms: f64,
    pub rob_ms: f64,
}

pub fn text_inputs(seed: u64) -> TextInputs {
    let t = Instant::now();
    let corpus = generate(&CorpusConfig::paper(CORPUS_SEED));
    let corpus_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let rob = build_rob(&corpus, seed ^ 0x0b);
    let rob_ms = t.elapsed().as_secs_f64() * 1e3;
    TextInputs {
        corpus,
        rob,
        seed,
        corpus_ms,
        rob_ms,
    }
}

/// `0..n` in an order the seed decides (Fisher–Yates over xorshift).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    // `| 1` keeps the xorshift state off its fixed point at zero.
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (xorshift(&mut rng) % (i as u64 + 1)) as usize);
    }
    order
}

/// One `POST /v1/translate` the load generator sends.
pub struct Request {
    /// Normalised the way the server keys its cache.
    pub nlq: String,
    pub db: String,
    /// The request as it goes on the wire.
    pub wire: Vec<u8>,
    /// The same request carrying `X-T2V-Trace: 1`.
    pub wire_traced: Vec<u8>,
}

fn wire(body: &str, traced: bool) -> Vec<u8> {
    format!(
        "POST /v1/translate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{}Content-Length: {}\r\n\r\n{body}",
        if traced { "X-T2V-Trace: 1\r\n" } else { "" },
        body.len(),
    )
    .into_bytes()
}

/// Requests for `examples`, one per distinct cache key (normalised NLQ ×
/// database), in example order, at most `limit`.
pub fn requests<'a>(
    corpus: &Corpus,
    examples: impl IntoIterator<Item = &'a RobExample>,
    limit: usize,
) -> Vec<Request> {
    let mut seen: HashSet<(String, usize)> = HashSet::new();
    let mut out = Vec::new();
    for ex in examples {
        assert!(
            !ex.uses_renamed,
            "renamed dbs are not in the server catalog"
        );
        if out.len() == limit {
            break;
        }
        let nlq = normalize_nlq(&ex.nlq);
        if !seen.insert((nlq.clone(), ex.db)) {
            continue;
        }
        let db = corpus.databases[ex.db].id.clone();
        let body = Json::obj([
            ("db", Json::str(db.as_str())),
            ("nlq", Json::str(ex.nlq.as_str())),
        ])
        .compact();
        out.push(Request {
            nlq,
            db,
            wire: wire(&body, false),
            wire_traced: wire(&body, true),
        });
    }
    out
}

/// `serve_hot`'s working set: 64 distinct questions of the `original` set,
/// chosen by the seed.
pub fn hot_requests(inputs: &TextInputs) -> Vec<Request> {
    let original = &inputs.rob.original;
    let order = shuffled(original.len(), inputs.seed);
    requests(&inputs.corpus, order.iter().map(|&i| &original[i]), 64)
}

/// `serve_miss`'s scan: every distinct question of the `original` and `nlq`
/// sets, both over the original databases, in an order the seed decides.
pub fn miss_requests(inputs: &TextInputs) -> Vec<Request> {
    let all: Vec<&RobExample> = inputs.rob.original.iter().chain(&inputs.rob.nlq).collect();
    let order = shuffled(all.len(), inputs.seed);
    requests(&inputs.corpus, order.iter().map(|&i| all[i]), usize::MAX)
}

// perfsnap's generator (crates/bench/src/bin/perfsnap.rs), seeded.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Uniform in [-1, 1).
fn unit(state: &mut u64) -> f32 {
    ((xorshift(state) >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

pub const VECTOR_ROWS: usize = 200_000;
pub const VECTOR_DIMS: usize = 256;
pub const VECTOR_QUERIES: usize = 256;

/// Clustered rows — the shape an embedding library takes, and the regime
/// IVF is built for — plus queries that are perturbed cluster members.
pub struct VectorInputs {
    pub flat: VectorIndex,
    pub queries: Vec<Vec<f32>>,
}

pub fn vector_inputs(seed: u64, rows: usize) -> VectorInputs {
    let dims = VECTOR_DIMS;
    let clusters = (rows / 256).clamp(64, 4096);
    // `| 1` keeps the xorshift state off its fixed point at zero.
    let mut rng =
        (0x9E37_79B9_7F4A_7C15u64 ^ (rows as u64) ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)) | 1;
    let mut centers = vec![0f32; clusters * dims];
    for x in centers.iter_mut() {
        *x = unit(&mut rng);
    }
    let member = |rng: &mut u64, out: &mut [f32]| {
        let c = (xorshift(rng) as usize) % clusters;
        for (x, &m) in out.iter_mut().zip(&centers[c * dims..(c + 1) * dims]) {
            *x = m + 0.3 * unit(rng);
        }
    };
    let mut flat = VectorIndex::with_capacity_dims(rows, dims);
    let mut row = vec![0f32; dims];
    for _ in 0..rows {
        member(&mut rng, &mut row);
        flat.add_slice(&row);
    }
    let queries = (0..VECTOR_QUERIES)
        .map(|_| {
            let mut q = vec![0f32; dims];
            member(&mut rng, &mut q);
            t2v_embed::l2_normalize(&mut q);
            q
        })
        .collect();
    VectorInputs { flat, queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_vectors_and_another_seed_others() {
        let a = vector_inputs(7, 2_000);
        let b = vector_inputs(7, 2_000);
        let c = vector_inputs(8, 2_000);
        assert_eq!(a.flat.raw_rows(), b.flat.raw_rows());
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.flat.len(), 2_000);
        assert_eq!(a.queries.len(), VECTOR_QUERIES);
        let norm: f32 = a.queries[0].iter().map(|x| x * x).sum();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn shuffles_are_permutations_the_seed_decides() {
        let a = shuffled(100, 7);
        assert_eq!(a, shuffled(100, 7));
        assert_ne!(a, shuffled(100, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(a, sorted);
        assert!(shuffled(0, 7).is_empty());
    }

    #[test]
    fn requests_are_one_per_cache_key_and_framed_for_the_server() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 7 ^ 0x0b);
        let all = requests(
            &corpus,
            rob.original.iter().chain(&rob.original),
            usize::MAX,
        );
        let keys: HashSet<(&str, &str)> = all.iter().map(|r| (&*r.nlq, &*r.db)).collect();
        assert_eq!(keys.len(), all.len());
        assert!(all.len() <= rob.original.len());
        assert_eq!(requests(&corpus, &rob.original, 5).len(), 5);
        let r = &all[0];
        match t2v_serve::http::parse_request(&r.wire_traced, 64 * 1024) {
            t2v_serve::http::Parse::Complete(req, used) => {
                assert_eq!(used, r.wire_traced.len());
                assert_eq!(req.path, "/v1/translate");
                assert_eq!(req.header("x-t2v-trace"), Some("1"));
            }
            _ => panic!("the server's parser must accept the generated request"),
        }
        assert!(r.wire.len() < r.wire_traced.len());
    }
}
