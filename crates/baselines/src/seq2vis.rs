//! Seq2Vis (Luo et al. 2021a): an attention seq2seq with a pointer-generator
//! copy head, trained NLQ → DVQ on the nvBench training split.
//!
//! The copy head learns to emit column names straight from the question —
//! which is why the model tops the unperturbed benchmark and collapses
//! hardest on the dual-variant set (paper Figure 3: 79.73 → 5.50).

use crate::tokenize::{dvq_tokens, join_dvq_tokens, nlq_tokens};
use t2v_core::{
    validated_single_stage_response, BackendInfo, BackendKind, TranslateError, TranslateRequest,
    TranslateResponse, Translator,
};
use t2v_corpus::Corpus;
use t2v_neural::{train_loop, Seq2Seq, Seq2SeqConfig, SeqExample, TrainConfig, Vocab};

/// Training knobs for the neural baselines.
#[derive(Debug, Clone)]
pub struct BaselineTrainConfig {
    /// Cap on training pairs (the full split is subsampled deterministically).
    pub max_train: usize,
    pub epochs: usize,
    pub lr: f32,
    pub hidden: usize,
    pub emb: usize,
    pub threads: usize,
    pub seed: u64,
    pub verbose: bool,
}

impl Default for BaselineTrainConfig {
    fn default() -> Self {
        BaselineTrainConfig {
            max_train: 3000,
            epochs: 18,
            lr: 4e-3,
            hidden: 64,
            emb: 48,
            threads: t2v_neural::trainer::num_threads(),
            seed: 7,
            verbose: false,
        }
    }
}

impl BaselineTrainConfig {
    /// Small profile for tests.
    pub fn fast() -> Self {
        BaselineTrainConfig {
            max_train: 160,
            epochs: 10,
            hidden: 32,
            emb: 24,
            ..Default::default()
        }
    }
}

/// The trained Seq2Vis baseline.
pub struct Seq2Vis {
    src_vocab: Vocab,
    tgt_vocab: Vocab,
    net: Seq2Seq,
}

impl Seq2Vis {
    /// Train on the corpus training split.
    pub fn train(corpus: &Corpus, cfg: &BaselineTrainConfig) -> Self {
        let train = &corpus.train[..corpus.train.len().min(cfg.max_train)];
        // Frequency-filtered vocabularies: rare tokens (mostly literal
        // values) stay out of the closed vocabulary and are reachable only
        // through the copy head's extended ids.
        let mut src_counts: std::collections::HashMap<String, usize> = Default::default();
        let mut tgt_counts: std::collections::HashMap<String, usize> = Default::default();
        for ex in train {
            for t in nlq_tokens(&ex.nlq) {
                *src_counts.entry(t).or_default() += 1;
            }
            for t in dvq_tokens(&ex.dvq_text) {
                *tgt_counts.entry(t).or_default() += 1;
            }
        }
        let mut src_vocab = Vocab::build([]);
        let mut tgt_vocab = Vocab::build([]);
        for ex in train {
            for t in nlq_tokens(&ex.nlq) {
                if src_counts[&t] >= 2 {
                    src_vocab.intern(&t);
                }
            }
            for t in dvq_tokens(&ex.dvq_text) {
                if tgt_counts[&t] >= 2 {
                    tgt_vocab.intern(&t);
                }
            }
        }
        let examples: Vec<SeqExample> = train
            .iter()
            .map(|ex| {
                let src_toks = nlq_tokens(&ex.nlq);
                encode_example(&src_vocab, &tgt_vocab, &src_toks, &dvq_tokens(&ex.dvq_text))
            })
            .collect();
        let mut net = Seq2Seq::new(
            Seq2SeqConfig {
                src_vocab: src_vocab.len(),
                tgt_vocab: tgt_vocab.len(),
                emb: cfg.emb,
                hidden: cfg.hidden,
                copy: true,
                max_decode: 70,
            },
            cfg.seed,
        );
        train_loop(
            &mut net,
            &examples,
            &TrainConfig {
                epochs: cfg.epochs,
                lr: cfg.lr,
                batch: 32,
                threads: cfg.threads,
                seed: cfg.seed,
                verbose: cfg.verbose,
            },
            |m| &mut m.store,
            |m, ex, g| m.loss(g, ex),
        );
        Seq2Vis {
            src_vocab,
            tgt_vocab,
            net,
        }
    }
}

/// The DVQ-vocabulary id a copied source token would produce. Tries the
/// raw token plus its common DVQ casings (column names appear in the
/// question in their schema casing, but we lowercased NLQ tokens).
pub fn copy_target_id(tgt_vocab: &Vocab, token: &str) -> usize {
    let direct = tgt_vocab.id(token);
    if direct != t2v_neural::UNK {
        return direct;
    }
    let upper = token.to_ascii_uppercase();
    let id = tgt_vocab.id(&upper);
    if id != t2v_neural::UNK {
        return id;
    }
    // Cap_Snake casing.
    let cap: String = token
        .split('_')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + cs.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join("_");
    tgt_vocab.id(&cap)
}

/// Encode one training pair with extended copy ids.
pub fn encode_example(
    src_vocab: &Vocab,
    tgt_vocab: &Vocab,
    src_toks: &[String],
    tgt_toks: &[String],
) -> SeqExample {
    let v = tgt_vocab.len();
    let src: Vec<usize> = src_toks.iter().map(|t| src_vocab.id(t)).collect();
    let src_as_tgt: Vec<usize> = src_toks
        .iter()
        .enumerate()
        .map(|(j, t)| {
            let id = copy_target_id(tgt_vocab, t);
            if id == t2v_neural::UNK {
                v + j
            } else {
                id
            }
        })
        .collect();
    let mut tgt = Vec::with_capacity(tgt_toks.len() + 2);
    tgt.push(t2v_neural::BOS);
    for tok in tgt_toks {
        let id = tgt_vocab.id(tok);
        if id != t2v_neural::UNK {
            tgt.push(id);
            continue;
        }
        // OOV target: reachable only by copying a matching source token.
        let lower = tok.to_ascii_lowercase();
        match src_toks
            .iter()
            .position(|s| s.to_ascii_lowercase() == lower)
        {
            Some(j) => tgt.push(v + j),
            None => tgt.push(t2v_neural::UNK),
        }
    }
    tgt.push(t2v_neural::EOS);
    SeqExample {
        src,
        src_as_tgt,
        tgt,
    }
}

impl Seq2Vis {
    /// Greedy-decode one NLQ to DVQ-shaped text (no parse validation — the
    /// [`Translator`] impl validates before serving).
    pub fn decode(&self, nlq: &str) -> Option<String> {
        let toks = nlq_tokens(nlq);
        if toks.is_empty() {
            return None;
        }
        let src: Vec<usize> = toks.iter().map(|t| self.src_vocab.id(t)).collect();
        let v = self.tgt_vocab.len();
        let src_as_tgt: Vec<usize> = toks
            .iter()
            .enumerate()
            .map(|(j, t)| {
                let id = copy_target_id(&self.tgt_vocab, t);
                if id == t2v_neural::UNK {
                    v + j
                } else {
                    id
                }
            })
            .collect();
        let ids = self.net.greedy(&src, &src_as_tgt);
        let mut tokens = Vec::with_capacity(ids.len());
        for id in ids {
            if id >= v {
                tokens.push(toks[id - v].clone());
            } else if id > t2v_neural::UNK {
                tokens.push(self.tgt_vocab.token(id).to_string());
            }
        }
        if tokens.is_empty() {
            return None;
        }
        Some(join_dvq_tokens(&tokens))
    }
}

impl Translator for Seq2Vis {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "Seq2Vis".to_string(),
            kind: BackendKind::Seq2Seq,
            stages: vec!["seq2seq"],
            deterministic: true,
            description:
                "pointer-generator attention seq2seq (Luo et al. 2021a), trained NLQ → DVQ"
                    .to_string(),
        }
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        req.validate()?;
        let t0 = std::time::Instant::now();
        let out = self.decode(req.nlq);
        validated_single_stage_response("Seq2Vis", "seq2seq", out, t0.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};

    #[test]
    fn trains_and_emits_bounded_output() {
        // Smoke profile: convergence quality is covered by the toy-task
        // tests in t2v-neural and by `qualsnap`'s tables; here we only
        // check the training/inference plumbing end to end.
        let corpus = generate(&CorpusConfig::tiny(7));
        let mut cfg = BaselineTrainConfig::fast();
        cfg.epochs = 4;
        cfg.max_train = 80;
        let model = Seq2Vis::train(&corpus, &cfg);
        let mut produced = 0;
        for ex in corpus.dev.iter().take(10) {
            if let Some(p) = model.decode(&ex.nlq) {
                assert!(p.split_whitespace().count() <= 75);
                produced += 1;
            }
        }
        assert!(produced >= 5, "only {produced}/10 produced output");
    }

    #[test]
    fn copy_target_id_tries_casings() {
        let v = Vocab::build(["HIRE_DATE", "Dept_Id", "salary"]);
        assert_eq!(copy_target_id(&v, "hire_date"), v.id("HIRE_DATE"));
        assert_eq!(copy_target_id(&v, "dept_id"), v.id("Dept_Id"));
        assert_eq!(copy_target_id(&v, "salary"), v.id("salary"));
        assert_eq!(copy_target_id(&v, "unknown_thing"), t2v_neural::UNK);
    }
}
