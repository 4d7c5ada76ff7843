//! In-context DVQ generation (the behaviour behind Appendix C.2 prompts).
//!
//! The simulated LLM mirrors how an instruction-tuned model consumes a
//! few-shot prompt:
//!
//! 1. **Template induction** — pick the most attended example; attention
//!    combines content similarity with a *recency bias* over prompt position
//!    (which is why GRED's ascending-similarity ordering of examples helps,
//!    §4.2).
//! 2. **Intent reading** — parse chart / aggregate / filter / order / bin /
//!    limit intents from the question ([`crate::patterns`]).
//! 3. **Schema linking** — map template column slots and question phrases to
//!    the target schema ([`crate::linker`]); slots that fall below
//!    `link_threshold` are *copied verbatim from the prompt* (the stale
//!    column-name hallucination the paper's Debugger exists to fix).

use crate::linker::{link_slot, phrases, CallMap, EmbedCache, EmbedId, LinkResult};
use crate::memo::ContextMemo;
use crate::parse::{ParsedGeneration, ParsedSchema};
use crate::patterns::{CmpIntent, FilterKind, Intents, LitValue, PatternKnowledge};
use std::cell::OnceCell;
use t2v_dvq::ast::*;
use t2v_dvq::printer::Printer;
use t2v_embed::TextEmbedder;

/// Generation-time knobs, shared with the mock model config.
pub struct GenContext<'a> {
    pub embedder: &'a TextEmbedder,
    /// The model's context memo, kept beside `embedder`; `None` embeds
    /// every context text afresh.
    pub memo: Option<&'a ContextMemo>,
    pub knowledge: &'a PatternKnowledge,
    pub link_threshold: f32,
    pub recency_bias: f32,
    /// Probability of copying an *explicitly mentioned* column token
    /// verbatim instead of linking it against the schema — the lexical
    /// shortcut the paper diagnoses (§3: RGVisNet "still choosing the same
    /// column name ACC_Percent as in the training data"; LLMs share the
    /// habit when the prompt examples demonstrate the token).
    pub copy_bias: f64,
    pub seed: u64,
}

/// Run generation over a parsed prompt; returns the completion text
/// (`A: Visualize ...`).
pub fn generate_dvq(parsed: &ParsedGeneration, ctx: &GenContext) -> String {
    // What this call can embed: the question and every example, each schema
    // name, the question's n-grams (up to three per word) and a few slots.
    let expected_texts = 1
        + parsed.examples.len()
        + parsed.schema.tables.len()
        + parsed.schema.all_columns().count()
        + 3 * parsed.nlq.split_whitespace().count()
        + 8;
    let mut cache = EmbedCache::new(ctx.embedder, ctx.memo, expected_texts);
    let question = cache.id(parsed.nlq);

    // ----- 1. template induction with recency-weighted attention -----
    let template = {
        let n = parsed.examples.len();
        let mut best: Option<(f32, &str)> = None;
        for (i, ex) in parsed.examples.iter().enumerate() {
            let example = cache.context_id(ex.nlq);
            let frac = if n > 1 {
                i as f32 / (n - 1) as f32
            } else {
                1.0
            };
            let weight = 1.0 + ctx.recency_bias * frac;
            let score = cache.cos(question, example) * weight;
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, ex.dvq));
            }
        }
        best.and_then(|(_, dvq)| t2v_dvq::parse(dvq).ok())
    };

    // ----- 2. intent reading -----
    let intents = crate::patterns::detect(parsed.nlq, ctx.knowledge);

    // ----- 3. assemble -----
    let q = assemble(parsed, template, &intents, ctx, &mut cache);
    format!("A: {}", Printer::default().print(&q))
}

/// Column/table linking state for one generation call, restricted to the
/// selected table set (plus global fallbacks for subqueries).
struct LinkState<'a> {
    schema: &'a ParsedSchema<'a>,
    /// Arena id of every schema column, per table.
    schema_column_ids: &'a [Vec<EmbedId>],
    /// Candidate columns within the selected tables, their arena ids and
    /// owning schema-table indices.
    columns: Vec<&'a str>,
    column_ids: Vec<EmbedId>,
    column_owner: Vec<usize>,
    nlq: &'a str,
    /// Arena ids of the question's n-grams, resolved by the first slot that
    /// needs linking and shared by every later one.
    question_phrases: OnceCell<Vec<EmbedId>>,
    threshold: f32,
    /// Lowercased identifiers demonstrated by the chosen template DVQ.
    template_tokens: std::collections::HashSet<String>,
    copy_bias: f64,
    seed: u64,
    col_memo: CallMap<String, String>,
}

impl<'a> LinkState<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        schema: &'a ParsedSchema<'a>,
        schema_column_ids: &'a [Vec<EmbedId>],
        nlq: &'a str,
        threshold: f32,
        allowed: &[usize],
        template_tokens: std::collections::HashSet<String>,
        copy_bias: f64,
        seed: u64,
    ) -> Self {
        let mut columns = Vec::new();
        let mut column_ids = Vec::new();
        let mut column_owner = Vec::new();
        for &ti in allowed {
            columns.extend_from_slice(&schema.tables[ti].columns);
            column_ids.extend_from_slice(&schema_column_ids[ti]);
            column_owner.resize(columns.len(), ti);
        }
        LinkState {
            schema,
            schema_column_ids,
            columns,
            column_ids,
            column_owner,
            nlq,
            question_phrases: OnceCell::new(),
            threshold,
            template_tokens,
            copy_bias,
            seed,
            col_memo: CallMap::default(),
        }
    }

    /// Deterministic per-slot coin flip for the copy shortcut.
    fn copies(&self, slot: &str) -> bool {
        if self.copy_bias <= 0.0 {
            return false;
        }
        let mut h: u64 = self.seed ^ 0x5ca1e;
        for b in slot.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.copy_bias
    }

    /// Link `slot` against `candidates`, bridging through the question's
    /// phrases; `None` when nothing scores at or above the threshold.
    fn link(&self, cache: &mut EmbedCache, slot: &str, candidates: &[EmbedId]) -> Option<usize> {
        let slot = cache.id(slot);
        let question_phrases = self
            .question_phrases
            .get_or_init(|| phrases(self.nlq).iter().map(|p| cache.id(p)).collect());
        match link_slot(cache, slot, question_phrases, candidates) {
            Some(LinkResult { candidate, score }) if score >= self.threshold => Some(candidate),
            _ => None,
        }
    }

    /// Map a template column name / question phrase to a schema column.
    /// Falls back to the slot itself (hallucination) below threshold.
    fn map_column(&mut self, cache: &mut EmbedCache, slot: &str) -> String {
        let key = slot.to_ascii_lowercase();
        if let Some(hit) = self.col_memo.get(&key) {
            return hit.clone();
        }
        let resolved = self.resolve_column(cache, slot);
        self.col_memo.insert(key, resolved.clone());
        resolved
    }

    fn resolve_column(&self, cache: &mut EmbedCache, slot: &str) -> String {
        let normalized = identify(slot);
        for c in &self.columns {
            if c.eq_ignore_ascii_case(&normalized) {
                return c.to_string();
            }
        }
        // Lexical shortcut: an explicitly mentioned token (underscore-shaped
        // in the question itself, or demonstrated by the template) gets
        // copied verbatim instead of linked — the stale-name failure mode the
        // Debugger exists to fix. Paraphrased multi-word phrases ("date of
        // hire") are NOT explicit; the underscore test uses the raw slot.
        let explicit = slot.contains('_')
            || self
                .template_tokens
                .contains(&normalized.to_ascii_lowercase());
        if explicit && self.copies(&normalized) {
            return normalized;
        }
        match self.link(cache, slot, &self.column_ids) {
            Some(i) => self.columns[i].to_string(),
            // Hallucinate: copy the slot verbatim (underscored).
            None => normalized,
        }
    }

    fn map_table(&self, cache: &mut EmbedCache, slot: &str) -> String {
        let tables = &self.schema.tables;
        for t in tables {
            if t.name.eq_ignore_ascii_case(slot) {
                return t.name.to_string();
            }
        }
        let table_ids: Vec<EmbedId> = tables.iter().map(|t| cache.context_id(t.name)).collect();
        match self.link(cache, slot, &table_ids) {
            Some(i) => tables[i].name.to_string(),
            None => identify(slot),
        }
    }

    /// Link within one table's columns (for subquery selects).
    fn map_column_in(&self, cache: &mut EmbedCache, slot: &str, table: &str) -> String {
        let Some(ti) = self
            .schema
            .tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(table))
        else {
            return self.resolve_column(cache, slot);
        };
        let columns = &self.schema.tables[ti].columns;
        let normalized = identify(slot);
        for c in columns {
            if c.eq_ignore_ascii_case(&normalized) {
                return c.to_string();
            }
        }
        match self.link(cache, slot, &self.schema_column_ids[ti]) {
            Some(i) => columns[i].to_string(),
            None => normalized,
        }
    }

    /// Which table owns a (mapped) column name, if any.
    fn owner_of(&self, column: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
            .map(|i| self.column_owner[i])
    }
}

/// One candidate source for the query: a single table or an FK-joined pair.
#[derive(Debug, Clone)]
struct TableChoice<'a> {
    /// Schema table indices (base first).
    tables: Vec<usize>,
    /// Join edge (base column name, partner column name) for pairs.
    join: Option<(&'a str, &'a str)>,
}

/// Render a phrase as a syntactically valid DVQ identifier: every
/// non-alphanumeric character becomes `_`. Hallucinated (stale) names stay
/// wrong semantically but must never break the DVQ grammar.
fn identify(slot: &str) -> String {
    slot.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// How well each schema name in `names` (arena ids in `ids`) answers
/// `slot`: the best direct link score, `1.0` for a name that is the slot's
/// identifier form, never below `0.0`.
fn best_direct_score(cache: &mut EmbedCache, slot: &str, names: &[&str], ids: &[EmbedId]) -> f32 {
    let identifier = identify(slot);
    let slot = cache.id(slot);
    let mut best = 0.0f32;
    for (name, &id) in names.iter().zip(ids) {
        best = best.max(if name.eq_ignore_ascii_case(&identifier) {
            1.0
        } else {
            cache.cos(slot, id)
        });
    }
    best
}

/// Choose the source tables by scoring how well the question's slots are
/// covered by each candidate table (or FK pair) — what a capable LLM does
/// when shown the schema.
fn choose_tables<'a>(
    cache: &mut EmbedCache,
    schema: &ParsedSchema<'a>,
    column_ids: &[Vec<EmbedId>],
    slots: &[String],
    table_phrase: Option<&str>,
    template_table: Option<&str>,
) -> TableChoice<'a> {
    if schema.tables.is_empty() {
        return TableChoice {
            tables: vec![],
            join: None,
        };
    }
    let mut candidates: Vec<TableChoice> = (0..schema.tables.len())
        .map(|i| TableChoice {
            tables: vec![i],
            join: None,
        })
        .collect();
    for &(ft, fc, tt, tc) in &schema.foreign_keys {
        let (Some(fi), Some(ti)) = (
            schema
                .tables
                .iter()
                .position(|t| t.name.eq_ignore_ascii_case(ft)),
            schema
                .tables
                .iter()
                .position(|t| t.name.eq_ignore_ascii_case(tt)),
        ) else {
            continue;
        };
        candidates.push(TableChoice {
            tables: vec![fi, ti],
            join: Some((fc, tc)),
        });
    }

    // A table answers a slot as well as its best column does, and the table
    // phrase as well as its name does. Scored once per table: an FK pair
    // takes the better of its two tables.
    let slot_scores: Vec<Vec<f32>> = slots
        .iter()
        .map(|slot| {
            schema
                .tables
                .iter()
                .zip(column_ids)
                .map(|(t, ids)| best_direct_score(cache, slot, &t.columns, ids))
                .collect()
        })
        .collect();
    let phrase_scores: Option<Vec<f32>> = table_phrase.map(|tp| {
        schema
            .tables
            .iter()
            .map(|t| {
                let id = cache.context_id(t.name);
                best_direct_score(cache, tp, &[t.name], &[id])
            })
            .collect()
    });
    let best_of =
        |scores: &[f32], tables: &[usize]| tables.iter().fold(0.0f32, |s, &ti| s.max(scores[ti]));

    let mut best: (f32, usize) = (f32::MIN, 0);
    for (ci, cand) in candidates.iter().enumerate() {
        let mut score = 0.0f32;
        for scores in &slot_scores {
            score += best_of(scores, &cand.tables);
        }
        if let Some(scores) = &phrase_scores {
            score += 1.5 * best_of(scores, &cand.tables);
        }
        // The retrieved prototype's source table is strong evidence when it
        // still exists in the target schema (same-database prototypes).
        if let Some(tt) = template_table {
            if cand
                .tables
                .iter()
                .any(|&ti| schema.tables[ti].name.eq_ignore_ascii_case(tt))
            {
                score += 1.2;
            }
        }
        // Prefer fewer tables on ties: joins must earn their keep.
        score -= 0.12 * (cand.tables.len() as f32 - 1.0);
        if score > best.0 {
            best = (score, ci);
        }
    }
    candidates.swap_remove(best.1)
}

fn assemble(
    parsed: &ParsedGeneration,
    template: Option<Dvq>,
    intents: &Intents,
    ctx: &GenContext,
    cache: &mut EmbedCache,
) -> Dvq {
    // Surface style: follow what the template demonstrates; with no
    // evidence, fall back to the corpus house style the examples teach.
    let (tmpl_null_style, tmpl_bang) = template
        .as_ref()
        .map(template_style)
        .unwrap_or((None, None));
    let null_style = tmpl_null_style.unwrap_or(NullStyle::CompareString);
    let bang = tmpl_bang.unwrap_or(true);
    let tmpl_aliases = template.as_ref().is_some_and(|t| t.from.alias.is_some());
    // Identifier tokens the template demonstrates (columns + tables).
    let mut template_tokens: std::collections::HashSet<String> = Default::default();
    if let Some(t) = &template {
        t.visit_columns(&mut |c: &ColumnRef| {
            template_tokens.insert(c.column.to_ascii_lowercase());
        });
        for name in t.table_names() {
            template_tokens.insert(name.to_ascii_lowercase());
        }
    }

    // ----- slot collection -----
    let tmpl_x = template.as_ref().map(|t| t.x.column().column.clone());
    let tmpl_y = template.as_ref().map(|t| t.y.column().column.clone());
    let x_slot = intents
        .x_phrase
        .clone()
        .or(tmpl_x)
        .unwrap_or_else(|| "value".to_string());
    // COUNT questions have no independent y column; a template's aggregate
    // argument must not leak into the slot set.
    let y_slot = if intents.count_y {
        None
    } else {
        intents.y_phrase.clone().or(tmpl_y)
    };
    let mut slots: Vec<String> = vec![x_slot.clone()];
    if let Some(y) = &y_slot {
        slots.push(y.clone());
    }
    for f in &intents.filters {
        slots.push(f.col_phrase.clone());
    }
    if let Some(c) = &intents.color_phrase {
        slots.push(c.clone());
    }
    if let Some(g) = &intents.group_phrase {
        slots.push(g.clone());
    }
    if let Some(b) = &intents.bin_col_phrase {
        slots.push(b.clone());
    }

    // ----- table selection -----
    let column_ids: Vec<Vec<EmbedId>> = parsed
        .schema
        .tables
        .iter()
        .map(|t| t.columns.iter().map(|c| cache.context_id(c)).collect())
        .collect();
    let choice = choose_tables(
        cache,
        &parsed.schema,
        &column_ids,
        &slots,
        intents.table_phrase.as_deref(),
        template.as_ref().map(|t| t.from.name.as_str()),
    );
    let mut link = LinkState::new(
        &parsed.schema,
        &column_ids,
        parsed.nlq,
        ctx.link_threshold,
        &choice.tables,
        template_tokens,
        ctx.copy_bias,
        ctx.seed,
    );
    let from_name = choice
        .tables
        .first()
        .map(|&ti| parsed.schema.tables[ti].name.to_string())
        .unwrap_or_else(|| "data".to_string());

    // ----- axes -----
    // Resolve a slot; when the phrase hallucinated (no schema hit), fall
    // back to the template's column for that axis — the prototype is often
    // from the same database and already names the right column.
    let tmpl_x2 = template.as_ref().map(|t| t.x.column().column.clone());
    let tmpl_y2 = template.as_ref().map(|t| t.y.column().column.clone());
    let resolve_with_fallback =
        |link: &mut LinkState, cache: &mut EmbedCache, slot: &str, fallback: Option<&String>| {
            let first = link.map_column(cache, slot);
            if link.schema.has_column(&first) {
                return first;
            }
            if let Some(fb) = fallback {
                let second = link.map_column(cache, fb);
                if link.schema.has_column(&second) {
                    return second;
                }
            }
            first
        };
    let x_col = ColumnRef::bare(resolve_with_fallback(
        &mut link,
        cache,
        &x_slot,
        tmpl_x2.as_ref(),
    ));
    let template_y_agg = template.as_ref().and_then(|t| t.y.aggregate());
    let y_expr = if intents.count_y {
        SelectExpr::Aggregate {
            func: AggFunc::Count,
            distinct: false,
            arg: x_col.clone(),
        }
    } else {
        let y_col = ColumnRef::bare(match &y_slot {
            Some(s) => resolve_with_fallback(&mut link, cache, s, tmpl_y2.as_ref()),
            None => x_col.column.clone(),
        });
        match intents.agg.or(template_y_agg) {
            Some(f) if intents.agg.is_some() => SelectExpr::Aggregate {
                func: f,
                distinct: false,
                arg: y_col,
            },
            _ => SelectExpr::Column(y_col),
        }
    };

    let mut q = Dvq::simple(
        intents
            .chart
            .or(template.as_ref().map(|t| t.chart))
            .unwrap_or(ChartType::Bar),
        SelectExpr::Column(x_col.clone()),
        y_expr,
        from_name,
    );

    // ----- join -----
    if choice.tables.len() == 2 {
        if let Some((fc, tc)) = choice.join {
            q.joins.push(Join {
                table: TableRef::new(parsed.schema.tables[choice.tables[1]].name.to_string()),
                left: ColumnRef::bare(fc.to_string()),
                right: ColumnRef::bare(tc.to_string()),
            });
            if tmpl_aliases {
                q.from.alias = Some("T1".into());
            }
        }
    }

    // ----- filters -----
    if !intents.filters.is_empty() {
        // Template predicate columns (in order) back up hallucinated slots.
        let tmpl_pred_cols: Vec<String> = template
            .as_ref()
            .and_then(|t| t.where_clause.as_ref())
            .map(|w| w.predicates().map(|p| p.column().column.clone()).collect())
            .unwrap_or_default();
        let mut preds: Vec<(BoolOp, Predicate)> = Vec::new();
        for (fi, f) in intents.filters.iter().enumerate() {
            let conn = if f.or_connective {
                BoolOp::Or
            } else {
                BoolOp::And
            };
            let col = ColumnRef::bare(resolve_with_fallback(
                &mut link,
                cache,
                &f.col_phrase,
                tmpl_pred_cols.get(fi),
            ));
            let pred = match &f.kind {
                FilterKind::Cmp { op, value } => Predicate::Compare {
                    col,
                    op: cmp_op(*op, bang),
                    value: lit_value(value, parsed.nlq),
                },
                FilterKind::Between { lo, hi } => Predicate::Between {
                    col,
                    lo: Value::num(lo),
                    hi: Value::num(hi),
                },
                FilterKind::Like { pattern } => Predicate::Like {
                    col,
                    negated: false,
                    pattern: restore_case(parsed.nlq, pattern),
                },
                FilterKind::NotNull => Predicate::NullCheck {
                    col,
                    negated: true,
                    style: null_style,
                },
                FilterKind::EqSub {
                    select_phrase,
                    table_phrase,
                    filter,
                } => {
                    let table = link.map_table(cache, table_phrase);
                    let select = link.map_column_in(cache, select_phrase, &table);
                    let where_clause = filter.as_ref().map(|(fc, fv)| {
                        Condition::single(Predicate::Compare {
                            col: ColumnRef::bare(link.map_column_in(cache, fc, &table)),
                            op: CompareOp::Eq,
                            value: lit_value(fv, parsed.nlq),
                        })
                    });
                    Predicate::Compare {
                        col,
                        op: CompareOp::Eq,
                        value: Value::Subquery(Box::new(SubQuery {
                            select: ColumnRef::bare(select),
                            from: table,
                            where_clause,
                        })),
                    }
                }
                FilterKind::InSub {
                    select_phrase,
                    table_phrase,
                } => {
                    let table = link.map_table(cache, table_phrase);
                    let select = link.map_column_in(cache, select_phrase, &table);
                    Predicate::In {
                        col,
                        negated: false,
                        subquery: Box::new(SubQuery {
                            select: ColumnRef::bare(select),
                            from: table,
                            where_clause: None,
                        }),
                    }
                }
            };
            preds.push((conn, pred));
        }
        let mut it = preds.into_iter();
        let (_, first) = it.next().expect("non-empty");
        q.where_clause = Some(Condition {
            first,
            rest: it.collect(),
        });
    }

    // ----- binning -----
    q.bin = intents.bin_unit.map(|unit| {
        let col = match &intents.bin_col_phrase {
            Some(p) => ColumnRef::bare(link.map_column(cache, p)),
            None => q.x.column().clone(),
        };
        Binning { col, unit }
    });

    // ----- grouping -----
    if q.chart.is_grouped() {
        if let Some(cp) = &intents.color_phrase {
            q.group_by = vec![ColumnRef::bare(link.map_column(cache, cp))];
        } else if let Some(t) = &template {
            q.group_by = t
                .group_by
                .iter()
                .map(|g| ColumnRef::bare(link.map_column(cache, &g.column)))
                .collect();
        }
    } else if q.bin.is_some() {
        q.group_by.clear();
    } else if q.y.aggregate().is_some() {
        q.group_by = vec![q.x.column().clone()];
    } else if let Some(gp) = &intents.group_phrase {
        q.group_by = vec![ColumnRef::bare(link.map_column(cache, gp))];
    }

    // ----- ordering / limit -----
    // Copy the template's implicit-ASC habit (the Retuner refines further).
    let tmpl_implicit_asc = template
        .as_ref()
        .and_then(|t| t.order_by.as_ref())
        .map(|o| o.dir.is_none())
        .unwrap_or(false);
    q.order_by = intents.order_dir.map(|dir| OrderKey {
        expr: if intents.order_on_y == Some(true) {
            q.y.clone()
        } else {
            q.x.clone()
        },
        dir: if dir == SortDir::Asc && tmpl_implicit_asc {
            None
        } else {
            Some(dir)
        },
    });
    q.limit = intents.limit;

    // ----- qualification for joined queries -----
    if !q.joins.is_empty() {
        qualify(&mut q, &link);
    } else {
        q.visit_columns_mut(&mut |c: &mut ColumnRef| c.qualifier = None);
        q.from.alias = None;
    }

    q
}
/// The style the chosen template demonstrates.
fn template_style(t: &Dvq) -> (Option<NullStyle>, Option<bool>) {
    let key = t2v_dvq::components::StyleKey::of(t);
    (
        key.null_styles.first().copied(),
        key.noteq_bangs.first().copied(),
    )
}

fn cmp_op(op: CmpIntent, bang: bool) -> CompareOp {
    match op {
        CmpIntent::Eq => CompareOp::Eq,
        CmpIntent::NotEq => CompareOp::NotEq { bang },
        CmpIntent::Lt => CompareOp::Lt,
        CmpIntent::Le => CompareOp::Le,
        CmpIntent::Gt => CompareOp::Gt,
        CmpIntent::Ge => CompareOp::Ge,
    }
}

fn lit_value(v: &LitValue, nlq: &str) -> Value {
    match v {
        LitValue::Num(n) => Value::num(n),
        LitValue::Text(t) => Value::Text {
            text: restore_case(nlq, t),
            double_quoted: false,
        },
    }
}

/// The intent detector works on a lowercased question; recover the original
/// casing of a literal by locating it case-insensitively in the question.
fn restore_case(nlq: &str, lower: &str) -> String {
    let hay = nlq.to_ascii_lowercase();
    match hay.find(&lower.to_ascii_lowercase()) {
        Some(pos) => nlq[pos..pos + lower.len()].to_string(),
        None => lower.to_string(),
    }
}

/// Qualify the top-level columns with their owning table's binding (alias or
/// table name), matching the corpus convention for multi-table queries.
/// Join ON columns are qualified positionally (left = base, right = joined);
/// subquery internals stay bare, as the corpus writes them.
fn qualify(q: &mut Dvq, link: &LinkState) {
    let use_aliases = q.from.alias.is_some();
    let from_name = q.from.name.clone();
    let join_names: Vec<String> = q.joins.iter().map(|j| j.table.name.clone()).collect();
    if use_aliases {
        q.from.alias = Some("T1".into());
        for (i, j) in q.joins.iter_mut().enumerate() {
            j.table.alias = Some(format!("T{}", i + 2));
        }
    }
    let base_binding = if use_aliases {
        "T1".to_string()
    } else {
        from_name.clone()
    };
    let binding_of_table = |table_name: &str| -> String {
        if use_aliases {
            if table_name.eq_ignore_ascii_case(&from_name) {
                "T1".to_string()
            } else if let Some(pos) = join_names
                .iter()
                .position(|n| n.eq_ignore_ascii_case(table_name))
            {
                format!("T{}", pos + 2)
            } else {
                "T1".to_string()
            }
        } else {
            table_name.to_string()
        }
    };
    for (i, j) in q.joins.iter_mut().enumerate() {
        j.left.qualifier = Some(base_binding.clone());
        j.right.qualifier = Some(if use_aliases {
            format!("T{}", i + 2)
        } else {
            j.table.name.clone()
        });
    }
    let requalify = |c: &mut ColumnRef| {
        let owner_name = link
            .owner_of(&c.column)
            .map(|ti| link.schema.tables[ti].name.to_string())
            .unwrap_or_else(|| from_name.clone());
        c.qualifier = Some(binding_of_table(&owner_name));
    };
    requalify(q.x.column_mut());
    requalify(q.y.column_mut());
    if let Some(w) = &mut q.where_clause {
        for p in w.predicates_mut() {
            requalify(p.column_mut());
        }
    }
    for g in &mut q.group_by {
        requalify(g);
    }
    if let Some(o) = &mut q.order_by {
        requalify(o.expr.column_mut());
    }
    if let Some(b) = &mut q.bin {
        requalify(&mut b.col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_generation;
    use crate::prompts::{generation_prompt, GenExample};
    use t2v_corpus::Lexicon;
    use t2v_embed::EmbedConfig;

    fn ctx<'a>(embedder: &'a TextEmbedder, knowledge: &'a PatternKnowledge) -> GenContext<'a> {
        GenContext {
            embedder,
            memo: None,
            knowledge,
            link_threshold: 0.3,
            copy_bias: 0.0,
            recency_bias: 0.15,
            seed: 7,
        }
    }

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(
            Lexicon::builtin(),
            EmbedConfig {
                lexicon_coverage: 1.0,
                ..EmbedConfig::default()
            },
        )
    }

    fn run(examples: Vec<GenExample>, schema: &str, nlq: &str) -> String {
        let msgs = generation_prompt(&examples, schema, nlq);
        let parsed = parse_generation(&msgs[1].content).unwrap();
        let e = embedder();
        let k = PatternKnowledge::full();
        let out = generate_dvq(&parsed, &ctx(&e, &k));
        out.strip_prefix("A: ").unwrap().to_string()
    }

    fn hr_example() -> GenExample<'static> {
        GenExample {
            db_id: "hr_1".into(),
            schema_text: "# Table employees, columns = [ * , EMPLOYEE_ID , SALARY , CITY , HIRE_DATE ]\n# Foreign_keys = [  ]\n".into(),
            nlq: "Draw a bar chart about the distribution of CITY and the number of CITY, and group by attribute CITY.".into(),
            dvq: "Visualize BAR SELECT CITY , COUNT(CITY) FROM employees GROUP BY CITY".into(),
        }
    }

    #[test]
    fn explicit_question_reuses_schema_names() {
        let out = run(
            vec![hr_example()],
            "# Table employees, columns = [ * , EMPLOYEE_ID , SALARY , CITY , HIRE_DATE ]\n# Foreign_keys = [  ]\n",
            "Draw a bar chart about the distribution of CITY and the number of CITY, and group by attribute CITY.",
        );
        assert_eq!(
            out,
            "Visualize BAR SELECT CITY , COUNT(CITY) FROM employees GROUP BY CITY"
        );
    }

    #[test]
    fn renamed_schema_links_through_synonyms() {
        // Schema renamed: CITY -> Town, employees -> staff_member.
        let out = run(
            vec![hr_example()],
            "# Table staff_member, columns = [ * , Staff_Member_Key , Wage , Town , Hiring_Date ]\n# Foreign_keys = [  ]\n",
            "Draw a bar chart about the distribution of CITY and the number of CITY, and group by attribute CITY.",
        );
        assert!(out.contains("SELECT Town , COUNT(Town)"), "{out}");
        assert!(out.contains("FROM staff_member"), "{out}");
    }

    #[test]
    fn paraphrased_question_with_filters() {
        let out = run(
            vec![GenExample {
                db_id: "hr_1".into(),
                schema_text: "# Table employees, columns = [ * , SALARY , CITY ]\n# Foreign_keys = [  ]\n".into(),
                nlq: "Draw a bar chart about the distribution of CITY and the average of SALARY, for those records whose SALARY is in the range of 8000 and 12000, and group by attribute CITY.".into(),
                dvq: "Visualize BAR SELECT CITY , AVG(SALARY) FROM employees WHERE SALARY BETWEEN 8000 AND 12000 GROUP BY CITY".into(),
            }],
            "# Table employees, columns = [ * , SALARY , CITY ]\n# Foreign_keys = [  ]\n",
            "Please give me a histogram showing the mean wage across the town, considering only entries whose pay falls between 8000 and 12000.",
        );
        assert!(out.contains("AVG(SALARY)"), "{out}");
        assert!(out.contains("SALARY BETWEEN 8000 AND 12000"), "{out}");
        assert!(out.contains("GROUP BY CITY"), "{out}");
    }

    #[test]
    fn hallucination_below_threshold_copies_template_name() {
        // Target schema has nothing resembling CITY, and the question gives
        // no bridge either → the model copies the stale name.
        let out = run(
            vec![hr_example()],
            "# Table gadget, columns = [ * , gadget_key , voltage ]\n# Foreign_keys = [  ]\n",
            "Draw a bar chart about the distribution of CITY and the number of CITY, and group by attribute CITY.",
        );
        assert!(
            out.to_ascii_lowercase().contains("city"),
            "stale name should survive: {out}"
        );
    }

    #[test]
    fn order_limit_and_bin_intents_apply() {
        let out = run(
            vec![GenExample {
                db_id: "x".into(),
                schema_text: "# Table events, columns = [ * , EVENT_DATE , PRICE ]\n# Foreign_keys = [  ]\n".into(),
                nlq: "Draw a line chart about the change of the number of EVENT_DATE over EVENT_DATE, and bin EVENT_DATE by year.".into(),
                dvq: "Visualize LINE SELECT EVENT_DATE , COUNT(EVENT_DATE) FROM events BIN EVENT_DATE BY YEAR".into(),
            }],
            "# Table events, columns = [ * , EVENT_DATE , PRICE ]\n# Foreign_keys = [  ]\n",
            "Show the number of EVENT_DATE in a line chart, and bin EVENT_DATE by year, sort X axis in desc order, and show only the top 5.",
        );
        assert!(out.contains("BIN EVENT_DATE BY YEAR"), "{out}");
        assert!(out.contains("ORDER BY EVENT_DATE DESC"), "{out}");
        assert!(out.contains("LIMIT 5"), "{out}");
        assert!(!out.contains("GROUP BY"), "bin replaces grouping: {out}");
    }

    #[test]
    fn generation_output_always_parses() {
        let out = run(
            vec![hr_example()],
            "# Table anything, columns = [ * , a_key , b_val ]\n# Foreign_keys = [  ]\n",
            "Some question with no recognisable cues at all.",
        );
        t2v_dvq::parse(&out).unwrap();
    }
}
