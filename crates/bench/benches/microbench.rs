//! Criterion micro-benchmarks for the substrate crates, backing the design
//! choices called out in DESIGN.md §5 (e.g. brute-force top-K retrieval,
//! allocation-light parsing, executor throughput, end-to-end GRED latency).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use t2v_corpus::{generate, CorpusConfig};
use t2v_embed::{TextEmbedder, VectorIndex};
use t2v_engine::Store;
use t2v_gred::{default_gred, GredConfig};
use t2v_perturb::rename_database;

const QUERY: &str = "Visualize BAR SELECT JOB_ID , AVG(MANAGER_ID) FROM employees \
                     WHERE salary BETWEEN 8000 AND 12000 AND commission_pct != \"null\" \
                     OR department_id <> 40 GROUP BY JOB_ID ORDER BY JOB_ID ASC";

fn bench_dvq(c: &mut Criterion) {
    let parsed = t2v_dvq::parse(QUERY).unwrap();
    c.bench_function("dvq/parse", |b| {
        b.iter(|| t2v_dvq::parse(black_box(QUERY)).unwrap())
    });
    c.bench_function("dvq/print", |b| {
        b.iter(|| t2v_dvq::Printer::default().print(black_box(&parsed)))
    });
    c.bench_function("dvq/grade", |b| {
        b.iter(|| {
            t2v_dvq::components::ComponentMatch::grade(black_box(&parsed), black_box(&parsed))
        })
    });
}

fn bench_embed(c: &mut Criterion) {
    let model = TextEmbedder::default_model();
    let text = "Please give me a histogram showing the change in wage over the date of hire in ascending manner.";
    c.bench_function("embed/sentence", |b| {
        b.iter(|| model.embed(black_box(text)))
    });
}

fn bench_retrieval(c: &mut Criterion) {
    let model = TextEmbedder::default_model();
    let mut group = c.benchmark_group("retrieval/top10");
    for &n in &[1_000usize, 6_000] {
        let mut index = VectorIndex::with_capacity(n);
        for i in 0..n {
            index.add(model.embed(&format!(
                "training question number {i} about salaries and cities"
            )));
        }
        let q = model.embed("question about wages in each town");
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| index.top_k(black_box(&q), 10))
        });
    }
    group.finish();
}

fn bench_embed_into(c: &mut Criterion) {
    let model = TextEmbedder::default_model();
    let text = "Please give me a histogram showing the change in wage over the date of hire in ascending manner.";
    let mut buf = vec![0f32; model.dims()];
    c.bench_function("embed/sentence_into", |b| {
        b.iter(|| model.embed_into(black_box(text), black_box(&mut buf)))
    });
}

fn bench_library_build(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let model = TextEmbedder::default_model();
    c.bench_function("library/build_tiny", |b| {
        b.iter(|| t2v_gred::EmbeddingLibrary::build(black_box(&corpus), black_box(&model)))
    });
}

fn bench_engine(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let db = &corpus.databases[0];
    let store = Store::synthesize(db, 7, 200);
    // Use a dev query targeting this database, if any; else a simple count.
    let q = corpus
        .dev
        .iter()
        .find(|e| e.db == 0)
        .map(|e| e.dvq.clone())
        .unwrap_or_else(|| t2v_dvq::parse(QUERY).unwrap());
    c.bench_function("engine/execute_200rows", |b| {
        b.iter(|| t2v_engine::execute(black_box(&q), black_box(&store)))
    });
}

fn bench_perturb(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig::tiny(7));
    c.bench_function("perturb/rename_database", |b| {
        b.iter(|| rename_database(black_box(&corpus.databases[0]), &corpus.lexicon, 42))
    });
}

fn bench_gred(c: &mut Criterion) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let gred = default_gred(&corpus, GredConfig::default());
    let ex = &corpus.dev[0];
    let db = &corpus.databases[ex.db];
    c.bench_function("gred/translate_end_to_end", |b| {
        b.iter(|| gred.translate(black_box(&ex.nlq), black_box(db)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dvq, bench_embed, bench_embed_into, bench_retrieval,
              bench_library_build, bench_engine, bench_perturb, bench_gred
}
criterion_main!(benches);
