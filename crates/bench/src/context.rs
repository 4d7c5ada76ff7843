//! Shared experiment context: corpus + nvBench-Rob construction, model
//! training with on-disk prediction caching, one evaluation per (model, set)
//! cell, and CLI argument handling.
//!
//! `qualsnap` accepts:
//!
//! * `--seed N` — experiment seed (default 7; all randomness derives from it)
//! * `--profile paper|small|tiny` — corpus scale (default `paper`: the full
//!   Figure 2 statistics; `small` and `tiny` for quick runs)
//! * `--fresh` — ignore the trained baselines' cached predictions; the cache
//!   is keyed by profile, seed, model and set, so a code change does not
//!   invalidate it (only Seq2Vis and Transformer are cached)
//! * `--limit N` — evaluate only the first N examples per set
//! * `--only SECTION,…` — run only these sections (default: all of them)
//!
//! Anything else — an unknown flag, profile or section, a value that does
//! not parse — exits 2 with a one-line message rather than running a default.

use std::fmt;
use std::path::PathBuf;
use t2v_baselines::{BaselineTrainConfig, RgVisNet, Seq2Vis, TransformerBaseline};
use t2v_core::Translator;
use t2v_corpus::{generate, Corpus, CorpusConfig};
use t2v_eval::EvalRun;
use t2v_gred::{default_gred, Gred, GredConfig};
use t2v_llm::SimulatedChatModel;
use t2v_perturb::{build_rob, NvBenchRob, RobVariant};

use crate::SECTIONS;

/// Which system to evaluate. The four GRED kinds are labels of Table 4's
/// rows; one GRED pass predicts all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    Seq2Vis,
    Transformer,
    RgVisNet,
    Gred,
    GredNoRtn,
    GredNoDbg,
    GredGeneratorOnly,
}

impl ModelKind {
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Seq2Vis => "Seq2Vis",
            ModelKind::Transformer => "Transformer",
            ModelKind::RgVisNet => "RGVisNet",
            ModelKind::Gred => "GRED",
            ModelKind::GredNoRtn => "GRED w/o RTN",
            ModelKind::GredNoDbg => "GRED w/o DBG",
            ModelKind::GredGeneratorOnly => "GRED w/o RTN&DBG",
        }
    }

    /// Tag of the on-disk prediction cache. Only the trained baselines have
    /// one: they pay minutes of training. RGVisNet and the GRED variants call
    /// the simulated model and embedder, so a cache would outlive a change to
    /// either; they take about a millisecond a question and are recomputed on
    /// every run, always reporting the current build.
    fn cache_tag(&self) -> Option<&'static str> {
        match self {
            ModelKind::Seq2Vis => Some("seq2vis"),
            ModelKind::Transformer => Some("transformer"),
            _ => None,
        }
    }
}

/// Table 4's GRED rows, in the order [`Gred::translate_ablations`] returns
/// them.
pub const GRED_ROWS: [ModelKind; 4] = [
    ModelKind::Gred,
    ModelKind::GredGeneratorOnly,
    ModelKind::GredNoRtn,
    ModelKind::GredNoDbg,
];

/// The name of a test set in cache file names and in `BENCH_quality.json`.
pub fn set_key(v: RobVariant) -> &'static str {
    match v {
        RobVariant::Original => "original",
        RobVariant::Nlq => "nlq",
        RobVariant::Schema => "schema",
        RobVariant::Both => "both",
    }
}

/// Corpus scale, which also picks the baselines' training budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Paper,
    Small,
    Tiny,
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Profile::Paper => "paper",
            Profile::Small => "small",
            Profile::Tiny => "tiny",
        })
    }
}

/// The validated command line of `qualsnap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub seed: u64,
    pub profile: Profile,
    pub fresh: bool,
    pub limit: Option<usize>,
    /// The names of the sections to run, in [`SECTIONS`] order; all of them
    /// when not given.
    pub sections: Vec<&'static str>,
}

/// Parse the arguments after the program name.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
        value
            .parse()
            .map_err(|_| format!("{flag} wants a non-negative integer, got `{value}`"))
    }
    let mut out = Args {
        seed: 7,
        profile: Profile::Paper,
        fresh: false,
        limit: None,
        sections: SECTIONS.map(|(name, _)| name).to_vec(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => out.seed = number(flag, it.next())?,
            "--limit" => out.limit = Some(number(flag, it.next())?),
            "--fresh" => out.fresh = true,
            "--profile" => {
                out.profile = match it.next().map(String::as_str) {
                    Some("paper") => Profile::Paper,
                    Some("small") => Profile::Small,
                    Some("tiny") => Profile::Tiny,
                    Some(other) => {
                        return Err(format!("--profile wants paper|small|tiny, got `{other}`"))
                    }
                    None => return Err("--profile needs a value".to_string()),
                }
            }
            "--only" => {
                let list = it.next().ok_or("--only needs a value")?;
                let names = SECTIONS.map(|(name, _)| name);
                if let Some(bad) = list.split(',').find(|s| !names.contains(s)) {
                    let names = names.join("|");
                    return Err(format!("--only wants sections from {names}, got `{bad}`"));
                }
                out.sections = names
                    .into_iter()
                    .filter(|name| list.split(',').any(|s| s == *name))
                    .collect();
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --seed N, --profile paper|small|tiny, --fresh, --limit N, --only SECTION,…)"
                ))
            }
        }
    }
    Ok(out)
}

/// One evaluated (model, set) cell: the predictions and their grades.
pub struct Cell {
    pub kind: ModelKind,
    pub predictions: Vec<Option<String>>,
    pub run: EvalRun,
}

/// The experiment context.
pub struct Ctx {
    pub corpus: Corpus,
    pub rob: NvBenchRob,
    pub seed: u64,
    pub profile: Profile,
    pub fresh: bool,
    pub limit: Option<usize>,
    pub sections: Vec<&'static str>,
    pub results_dir: PathBuf,
    models: Vec<(ModelKind, Box<dyn Translator>)>,
    gred: Option<Gred<SimulatedChatModel>>,
    /// Per set, the prediction lists of [`GRED_ROWS`] from one pass.
    gred_rows: Vec<(RobVariant, [Vec<Option<String>>; 4])>,
    cells: Vec<Cell>,
}

impl Ctx {
    /// Parse CLI arguments and build the corpus + robustness sets; a bad
    /// command line exits 2.
    pub fn from_args() -> Ctx {
        let argv: Vec<String> = std::env::args().collect();
        match parse_args(argv.get(1..).unwrap_or_default()) {
            Ok(args) => Ctx::new(args),
            Err(e) => {
                let program = argv.first().map_or("t2v-bench", String::as_str);
                eprintln!("{program}: {e}");
                std::process::exit(2);
            }
        }
    }

    pub fn new(args: Args) -> Ctx {
        let Args {
            seed,
            profile,
            fresh,
            limit,
            sections,
        } = args;
        let cfg = match profile {
            Profile::Paper => CorpusConfig::paper(seed),
            Profile::Small => CorpusConfig::small(seed),
            Profile::Tiny => CorpusConfig::tiny(seed),
        };
        eprintln!("[ctx] generating corpus (profile={profile}, seed={seed})...");
        let corpus = generate(&cfg);
        eprintln!(
            "[ctx] corpus: {} dbs, {} train, {} dev",
            corpus.databases.len(),
            corpus.train.len(),
            corpus.dev.len()
        );
        let rob = build_rob(&corpus, seed ^ 0x0b);
        Ctx {
            corpus,
            rob,
            seed,
            profile,
            fresh,
            limit,
            sections,
            results_dir: PathBuf::from("results"),
            models: Vec::new(),
            gred: None,
            gred_rows: Vec::new(),
            cells: Vec::new(),
        }
    }

    fn baseline_cfg(&self) -> BaselineTrainConfig {
        match self.profile {
            Profile::Paper => BaselineTrainConfig {
                max_train: 2600,
                epochs: 30,
                lr: 5e-3,
                hidden: 64,
                emb: 48,
                seed: self.seed,
                verbose: true,
                ..BaselineTrainConfig::default()
            },
            Profile::Small => BaselineTrainConfig {
                max_train: 1300,
                epochs: 30,
                lr: 5e-3,
                hidden: 56,
                emb: 40,
                seed: self.seed,
                verbose: true,
                ..BaselineTrainConfig::default()
            },
            Profile::Tiny => BaselineTrainConfig {
                seed: self.seed,
                ..BaselineTrainConfig::fast()
            },
        }
    }

    /// Train or build the baseline `kind` on first use; its index in
    /// `models`.
    fn prepare(&mut self, kind: ModelKind) -> usize {
        if let Some(i) = self.models.iter().position(|(k, _)| *k == kind) {
            return i;
        }
        eprintln!("[ctx] preparing {} ...", kind.label());
        let t = std::time::Instant::now();
        let corpus = &self.corpus;
        let model: Box<dyn Translator> = match kind {
            ModelKind::Seq2Vis => Box::new(Seq2Vis::train(corpus, &self.baseline_cfg())),
            ModelKind::Transformer => {
                Box::new(TransformerBaseline::train(corpus, &self.baseline_cfg()))
            }
            ModelKind::RgVisNet => Box::new(RgVisNet::build(corpus)),
            gred => unreachable!("{} is predicted by gred_rows", gred.label()),
        };
        eprintln!("[ctx] {} ready in {:?}", kind.label(), t.elapsed());
        self.models.push((kind, model));
        self.models.len() - 1
    }

    /// The first `n` predictions of every [`GRED_ROWS`] kind on `variant`,
    /// all four from one GRED pass on first use.
    fn gred_rows(&mut self, variant: RobVariant, n: usize) -> &[Vec<Option<String>>; 4] {
        let i = match self.gred_rows.iter().position(|(v, _)| *v == variant) {
            Some(i) => i,
            None => {
                let corpus = &self.corpus;
                let gred = self.gred.get_or_insert_with(|| {
                    eprintln!("[ctx] preparing GRED ...");
                    let t = std::time::Instant::now();
                    let gred = default_gred(corpus, GredConfig::default());
                    eprintln!("[ctx] GRED ready in {:?}", t.elapsed());
                    gred
                });
                eprintln!(
                    "[ctx] GRED and its ablations / {}: predicting {n} examples...",
                    variant.label()
                );
                let t = std::time::Instant::now();
                let mut rows: [Vec<Option<String>>; 4] = Default::default();
                for ex in &self.rob.set(variant)[..n] {
                    let db = self.rob.database(corpus, ex);
                    for (row, dvq) in rows.iter_mut().zip(gred.translate_ablations(&ex.nlq, db)) {
                        row.push(dvq);
                    }
                }
                eprintln!("[ctx]   done in {:?}", t.elapsed());
                self.gred_rows.push((variant, rows));
                self.gred_rows.len() - 1
            }
        };
        &self.gred_rows[i].1
    }

    fn cache_path(&self, kind: ModelKind, variant: RobVariant) -> Option<PathBuf> {
        let file = format!(
            "{}_s{}_{}_{}.tsv",
            self.profile,
            self.seed,
            kind.cache_tag()?,
            set_key(variant)
        );
        Some(self.results_dir.join("cache").join(file))
    }

    /// Predictions of `kind` over a variant's test set; a trained
    /// baseline's are cached on disk.
    pub fn predictions(&mut self, kind: ModelKind, variant: RobVariant) -> Vec<Option<String>> {
        let set_len = self.rob.set(variant).len();
        let n = self.limit.unwrap_or(set_len).min(set_len);
        if let Some(row) = GRED_ROWS.iter().position(|&k| k == kind) {
            return self.gred_rows(variant, n)[row].clone();
        }
        let path = self.cache_path(kind, variant);
        if !self.fresh {
            if let Some(cached) = path.as_ref().and_then(|p| load_cache(p, n)) {
                eprintln!("[ctx] {} / {}: cache hit", kind.label(), variant.label());
                return cached;
            }
        }
        eprintln!(
            "[ctx] {} / {}: predicting {n} examples...",
            kind.label(),
            variant.label()
        );
        let model = self.prepare(kind);
        let model = self.models[model].1.as_ref();
        let t = std::time::Instant::now();
        let preds: Vec<Option<String>> = self.rob.set(variant)[..n]
            .iter()
            .map(|ex| model.predict(&ex.nlq, self.rob.database(&self.corpus, ex)))
            .collect();
        eprintln!("[ctx]   done in {:?}", t.elapsed());
        if let Some(path) = path {
            save_cache(&path, &preds);
        }
        preds
    }

    /// The cell of `kind` on `variant`, evaluated on first use; every table
    /// reads the same cell.
    pub fn evaluate(&mut self, kind: ModelKind, variant: RobVariant) -> &Cell {
        let found = self
            .cells
            .iter()
            .position(|c| c.kind == kind && c.run.variant == variant);
        let i = match found {
            Some(i) => i,
            None => {
                let predictions = self.predictions(kind, variant);
                let set = &self.rob.set(variant)[..predictions.len()];
                // The set is sliced to the prediction count, so a mismatch
                // can only mean a bug in the caching layer — surface it
                // instead of grading misaligned pairs.
                let run = t2v_eval::evaluate_predictions(kind.label(), variant, &predictions, set)
                    .expect("predictions sliced to set length");
                self.cells.push(Cell {
                    kind,
                    predictions,
                    run,
                });
                self.cells.len() - 1
            }
        };
        &self.cells[i]
    }

    /// Every cell evaluated so far, in evaluation order.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

fn load_cache(path: &PathBuf, expect: usize) -> Option<Vec<Option<String>>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        match line.strip_prefix("OK\t") {
            Some(p) => out.push(Some(p.to_string())),
            None => out.push(None),
        }
    }
    if out.len() >= expect {
        out.truncate(expect);
        Some(out)
    } else {
        None
    }
}

fn save_cache(path: &PathBuf, preds: &[Option<String>]) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut body = String::new();
    for p in preds {
        match p {
            Some(text) => {
                body.push_str("OK\t");
                body.push_str(&text.replace(['\n', '\t'], " "));
            }
            None => body.push_str("MISS"),
        }
        body.push('\n');
    }
    let _ = std::fs::write(path, body);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn no_arguments_mean_the_paper_defaults() {
        let args = parse("").unwrap();
        assert_eq!(
            args,
            Args {
                seed: 7,
                profile: Profile::Paper,
                fresh: false,
                limit: None,
                sections: SECTIONS.map(|(name, _)| name).to_vec(),
            }
        );
    }

    #[test]
    fn every_documented_form_is_accepted() {
        for (line, profile) in [
            ("--profile paper", Profile::Paper),
            ("--profile small", Profile::Small),
            ("--profile tiny", Profile::Tiny),
        ] {
            assert_eq!(parse(line).unwrap().profile, profile, "{line}");
        }
        let args = parse("--limit 20 --fresh --seed 11 --profile tiny").unwrap();
        assert_eq!(
            args,
            Args {
                seed: 11,
                profile: Profile::Tiny,
                fresh: true,
                limit: Some(20),
                sections: SECTIONS.map(|(name, _)| name).to_vec(),
            }
        );
        assert_eq!(Profile::Small.to_string(), "small");
        // Sections run in the order a full run prints them, once each.
        let args = parse("--only ablations,figure2,table4,figure2").unwrap();
        assert_eq!(args.sections, ["figure2", "table4", "ablations"]);
        for (name, _) in SECTIONS {
            assert_eq!(parse(&format!("--only {name}")).unwrap().sections, [name]);
        }
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        for (line, needle) in [
            ("--profile smal", "`smal`"),
            ("--profile", "--profile needs a value"),
            ("--seed seven", "`seven`"),
            ("--seed -1", "`-1`"),
            ("--seed", "--seed needs a value"),
            ("--limit 1.5", "`1.5`"),
            ("--limit", "--limit needs a value"),
            ("--limt 20", "unknown argument `--limt`"),
            ("--only", "--only needs a value"),
            ("--only table6", "`table6`"),
            ("--only table4,", "got ``"),
            ("--only table4 ablations", "unknown argument `ablations`"),
            ("tiny", "unknown argument `tiny`"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
            assert!(!err.contains('\n'), "{line}: one line, got {err:?}");
        }
    }

    #[test]
    fn gred_predictions_ignore_a_planted_cache_file() {
        let args = parse("--profile tiny --limit 5").unwrap();
        let mut ctx = Ctx::new(args);
        ctx.results_dir = std::env::temp_dir().join(format!("t2v-bench-{}", std::process::id()));
        // The files an earlier build's runs would have left behind.
        let planted = "visualize bar select planted from stale_cache";
        let cache = ctx.results_dir.join("cache");
        std::fs::create_dir_all(&cache).unwrap();
        for tag in ["gred", "rgvisnet"] {
            let file = cache.join(format!("tiny_s{}_{tag}_nlq.tsv", ctx.seed));
            std::fs::write(&file, format!("OK\t{planted}\n").repeat(5)).unwrap();
        }
        let preds = [ModelKind::Gred, ModelKind::RgVisNet].map(|kind| {
            let preds = ctx.predictions(kind, RobVariant::Nlq);
            (kind, preds)
        });
        std::fs::remove_dir_all(&ctx.results_dir).unwrap();
        for (kind, preds) in preds {
            assert_eq!(preds.len(), 5);
            assert!(
                preds.iter().any(Option::is_some),
                "{kind:?} answered nothing"
            );
            assert!(
                preds.iter().all(|p| p.as_deref() != Some(planted)),
                "{kind:?} predictions came from the planted cache: {preds:?}"
            );
        }
    }
}
