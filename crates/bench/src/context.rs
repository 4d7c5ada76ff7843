//! Shared experiment context: corpus + nvBench-Rob construction, model
//! training with on-disk prediction caching, and CLI argument handling.
//!
//! Every experiment binary accepts:
//!
//! * `--seed N` — experiment seed (default 7; all randomness derives from it)
//! * `--profile paper|small|tiny` — corpus scale (default `paper`: the full
//!   Figure 2 statistics; `small` and `tiny` for quick runs)
//! * `--fresh` — ignore the baselines' cached predictions; the cache is keyed
//!   by profile, seed, model and set, so a code change does not invalidate it
//!   (GRED variants are never cached)
//! * `--limit N` — evaluate only the first N examples per set
//!
//! Anything else — an unknown flag or profile, a value that does not parse —
//! exits 2 with a one-line message rather than running a default.

use std::fmt;
use std::path::PathBuf;
use t2v_baselines::{BaselineTrainConfig, RgVisNet, Seq2Vis, TransformerBaseline};
use t2v_core::Translator;
use t2v_corpus::{generate, Corpus, CorpusConfig};
use t2v_gred::{default_gred, Gred, GredConfig};
use t2v_perturb::{build_rob, NvBenchRob, RobVariant};

/// Which system to evaluate.
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

    /// Tag of the on-disk prediction cache. Only the baselines have one:
    /// they pay minutes of training. The GRED variants are deterministic and
    /// take well under a millisecond a question, so they are recomputed on
    /// every run and always report the current build.
    fn cache_tag(&self) -> Option<&'static str> {
        match self {
            ModelKind::Seq2Vis => Some("seq2vis"),
            ModelKind::Transformer => Some("transformer"),
            ModelKind::RgVisNet => Some("rgvisnet"),
            _ => None,
        }
    }
}

fn variant_tag(v: RobVariant) -> &'static str {
    match v {
        RobVariant::Original => "orig",
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

/// The validated command line of an experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub seed: u64,
    pub profile: Profile,
    pub fresh: bool,
    pub limit: Option<usize>,
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
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --seed N, --profile paper|small|tiny, --fresh, --limit N)"
                ))
            }
        }
    }
    Ok(out)
}

/// The experiment context.
pub struct Ctx {
    pub corpus: Corpus,
    pub rob: NvBenchRob,
    pub seed: u64,
    pub profile: Profile,
    pub fresh: bool,
    pub limit: Option<usize>,
    pub results_dir: PathBuf,
    seq2vis: Option<Seq2Vis>,
    transformer: Option<TransformerBaseline>,
    rgvisnet: Option<RgVisNet>,
    gred: Vec<(ModelKind, Gred<t2v_llm::SimulatedChatModel>)>,
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
            results_dir: PathBuf::from("results"),
            seq2vis: None,
            transformer: None,
            rgvisnet: None,
            gred: Vec::new(),
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

    /// Train/build the model if needed (mutating), without borrowing it out.
    fn ensure_model(&mut self, kind: ModelKind) {
        let _ = self.model(kind);
    }

    /// Immutable access to a previously ensured model.
    fn get_model(&self, kind: ModelKind) -> &dyn Translator {
        match kind {
            ModelKind::Seq2Vis => self.seq2vis.as_ref().expect("ensured"),
            ModelKind::Transformer => self.transformer.as_ref().expect("ensured"),
            ModelKind::RgVisNet => self.rgvisnet.as_ref().expect("ensured"),
            _ => {
                let (_, g) = self.gred.iter().find(|(k, _)| *k == kind).expect("ensured");
                g
            }
        }
    }

    fn model(&mut self, kind: ModelKind) -> &dyn Translator {
        match kind {
            ModelKind::Seq2Vis => {
                if self.seq2vis.is_none() {
                    eprintln!("[ctx] training Seq2Vis...");
                    let t = std::time::Instant::now();
                    self.seq2vis = Some(Seq2Vis::train(&self.corpus, &self.baseline_cfg()));
                    eprintln!("[ctx] Seq2Vis trained in {:?}", t.elapsed());
                }
                self.seq2vis.as_ref().unwrap()
            }
            ModelKind::Transformer => {
                if self.transformer.is_none() {
                    eprintln!("[ctx] training Transformer...");
                    let t = std::time::Instant::now();
                    self.transformer = Some(TransformerBaseline::train(
                        &self.corpus,
                        &self.baseline_cfg(),
                    ));
                    eprintln!("[ctx] Transformer trained in {:?}", t.elapsed());
                }
                self.transformer.as_ref().unwrap()
            }
            ModelKind::RgVisNet => {
                if self.rgvisnet.is_none() {
                    eprintln!("[ctx] building RGVisNet codebase...");
                    self.rgvisnet = Some(RgVisNet::build(&self.corpus));
                }
                self.rgvisnet.as_ref().unwrap()
            }
            _ => {
                if !self.gred.iter().any(|(k, _)| *k == kind) {
                    let config = match kind {
                        ModelKind::Gred => GredConfig::default(),
                        ModelKind::GredNoRtn => GredConfig::default().without_retuner(),
                        ModelKind::GredNoDbg => GredConfig::default().without_debugger(),
                        ModelKind::GredGeneratorOnly => GredConfig::default().generator_only(),
                        _ => unreachable!(),
                    };
                    eprintln!("[ctx] preparing {} ...", kind.label());
                    self.gred.push((kind, default_gred(&self.corpus, config)));
                }
                let (_, g) = self
                    .gred
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .expect("just inserted");
                g as &dyn Translator
            }
        }
    }

    fn cache_path(&self, kind: ModelKind, variant: RobVariant) -> Option<PathBuf> {
        let file = format!(
            "{}_s{}_{}_{}.tsv",
            self.profile,
            self.seed,
            kind.cache_tag()?,
            variant_tag(variant)
        );
        Some(self.results_dir.join("cache").join(file))
    }

    /// Predictions of `kind` over a variant's test set; a baseline's are
    /// cached on disk.
    pub fn predictions(&mut self, kind: ModelKind, variant: RobVariant) -> Vec<Option<String>> {
        let set_len = self.rob.set(variant).len();
        let n = self.limit.unwrap_or(set_len).min(set_len);
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
        // Resolve inputs before borrowing the model (it may mutate self).
        let inputs: Vec<(String, usize, bool)> = self.rob.set(variant)[..n]
            .iter()
            .map(|e| (e.nlq.clone(), e.db, e.uses_renamed))
            .collect();
        let t = std::time::Instant::now();
        self.ensure_model(kind);
        let model = self.get_model(kind);
        let preds: Vec<Option<String>> = {
            let corpus = &self.corpus;
            let rob = &self.rob;
            inputs
                .iter()
                .map(|(nlq, db, renamed)| {
                    let db = if *renamed {
                        &rob.renamed[*db]
                    } else {
                        &corpus.databases[*db]
                    };
                    model.predict(nlq, db)
                })
                .collect()
        };
        eprintln!("[ctx]   done in {:?}", t.elapsed());
        if let Some(path) = path {
            save_cache(&path, &preds);
        }
        preds
    }

    /// Evaluate a model on a variant (with caching) and return the run.
    pub fn evaluate(&mut self, kind: ModelKind, variant: RobVariant) -> t2v_eval::EvalRun {
        let preds = self.predictions(kind, variant);
        let set = &self.rob.set(variant)[..preds.len()];
        // The set is sliced to the prediction count, so a mismatch can only
        // mean a bug in the caching layer — surface it instead of grading
        // misaligned pairs.
        t2v_eval::evaluate_predictions(kind.label(), variant, &preds, set)
            .expect("predictions sliced to set length")
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
            }
        );
        assert_eq!(Profile::Small.to_string(), "small");
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
        // The file an earlier build's GRED run would have left behind.
        let planted = "visualize bar select planted from stale_cache";
        let cache = ctx.results_dir.join("cache");
        std::fs::create_dir_all(&cache).unwrap();
        let file = cache.join(format!("tiny_s{}_gred_nlq.tsv", ctx.seed));
        std::fs::write(&file, format!("OK\t{planted}\n").repeat(5)).unwrap();
        let preds = ctx.predictions(ModelKind::Gred, RobVariant::Nlq);
        std::fs::remove_dir_all(&ctx.results_dir).unwrap();
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().any(Option::is_some), "GRED answered nothing");
        assert!(
            preds.iter().all(|p| p.as_deref() != Some(planted)),
            "GRED predictions came from the planted cache: {preds:?}"
        );
    }
}
