//! Annotation-based debugging (the behaviour behind Appendix C.4 prompts).
//!
//! Every column in the original DVQ that does **not** exist in the schema is
//! replaced by the schema column whose name-plus-annotation is most similar
//! (annotations anchor canonical synonyms, see [`crate::annotate`]). Unknown
//! table references are repaired the same way. With probability
//! `overcorrect` the model additionally "fixes" one column that was already
//! valid — the over-eagerness that makes full GRED slightly *worse* than
//! `w/o DBG` on the NLQ-only variant (paper Table 4).
//!
//! Most DVQs that reach the debugger name nothing stale, so the annotation
//! lookup, the `"{column} {annotation}"` descriptors and their embeddings
//! are built by the first name that needs repair, not up front.

use crate::linker::{CallMap, EmbedCache, EmbedId};
use crate::memo::ContextMemo;
use crate::parse::{parse_annotations, ParsedSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use t2v_dvq::ast::{ColumnRef, Dvq, Predicate, Value};
use t2v_dvq::printer::Printer;
use t2v_embed::TextEmbedder;

/// The schema's columns as repair candidates: each is scored by its name
/// and by its descriptor, "name words + annotation".
struct Candidates<'a> {
    columns: Vec<&'a str>,
    names: Vec<EmbedId>,
    descriptors: Vec<EmbedId>,
}

/// What repairing names needs, embedded on demand into one arena.
struct Repair<'a> {
    schema: &'a ParsedSchema<'a>,
    annotations: &'a str,
    cache: EmbedCache<'a>,
    candidates: Option<Candidates<'a>>,
}

impl<'a> Repair<'a> {
    /// The candidate columns and, index-aligned, how similar each is to
    /// `text`: the better of its name's and its descriptor's cosine.
    fn column_scores(&mut self, text: &str) -> (&[&'a str], Vec<f32>) {
        let text = self.cache.id(text);
        let (schema, annotations, cache) = (self.schema, self.annotations, &mut self.cache);
        let c = self.candidates.get_or_insert_with(|| {
            let ann = parse_annotations(annotations);
            let columns: Vec<&str> = schema.all_columns().map(|(_, c)| c).collect();
            let names = columns.iter().map(|c| cache.context_id(c)).collect();
            let descriptors = columns
                .iter()
                .map(
                    |c| match ann.iter().find(|(name, _)| name.eq_ignore_ascii_case(c)) {
                        Some((_, d)) => cache.context_id(&format!("{c} {d}")),
                        None => cache.context_id(c),
                    },
                )
                .collect();
            Candidates {
                columns,
                names,
                descriptors,
            }
        });
        let scores = c
            .names
            .iter()
            .zip(&c.descriptors)
            .map(|(&name, &desc)| self.cache.cos(text, name).max(self.cache.cos(text, desc)))
            .collect();
        (&c.columns, scores)
    }

    /// The schema column most similar to the unknown name `bad`.
    fn best_column(&mut self, bad: &str) -> Option<&'a str> {
        let (columns, scores) = self.column_scores(bad);
        let mut best = (0usize, f32::MIN);
        for (i, &s) in scores.iter().enumerate() {
            if s > best.1 {
                best = (i, s);
            }
        }
        columns.get(best.0).copied()
    }

    /// Replace a table name the schema does not have by its most similar one.
    fn fix_table(&mut self, name: &mut String) {
        let tables = &self.schema.tables;
        if self.schema.has_table(name) || tables.is_empty() {
            return;
        }
        let bad = self.cache.id(name);
        let mut best = (0usize, f32::MIN);
        for (i, t) in tables.iter().enumerate() {
            let id = self.cache.context_id(t.name);
            let s = self.cache.cos(bad, id);
            if s > best.1 {
                best = (i, s);
            }
        }
        *name = tables[best.0].name.to_string();
    }
}

/// Debug `original` against `schema` + `annotations`. `memo`, when given,
/// is the model's context memo kept beside `embedder`.
pub fn debug_dvq(
    schema: &ParsedSchema,
    annotations: &str,
    original: &str,
    embedder: &TextEmbedder,
    memo: Option<&ContextMemo>,
    overcorrect: f64,
    seed: u64,
) -> String {
    let Ok(mut q) = t2v_dvq::parse(original) else {
        return format!("### Revised DVQ:\n# {original}");
    };
    let mut repair = Repair {
        schema,
        annotations,
        // A repair embeds every column's name and descriptor, the table
        // names and a few stale names.
        cache: EmbedCache::new(
            embedder,
            memo,
            2 * schema.all_columns().count() + schema.tables.len() + 8,
        ),
        candidates: None,
    };

    // Consistent replacement per distinct bad name.
    let mut memo: CallMap<String, &str> = CallMap::default();
    let aliases = alias_names(&q);
    q.visit_columns_mut(&mut |c: &mut ColumnRef| {
        if schema.has_column(&c.column) || c.column == "*" {
            return;
        }
        let key = c.column.to_ascii_lowercase();
        if let Some(fixed) = memo.get(&key) {
            c.column = fixed.to_string();
            return;
        }
        if let Some(fixed) = repair.best_column(&c.column) {
            memo.insert(key, fixed);
            c.column = fixed.to_string();
        }
    });

    // Repair unknown table references (FROM, JOIN, subqueries).
    repair.fix_table(&mut q.from.name);
    for j in &mut q.joins {
        repair.fix_table(&mut j.table.name);
    }
    if let Some(w) = &mut q.where_clause {
        for p in w.predicates_mut() {
            match p {
                Predicate::In { subquery, .. } => repair.fix_table(&mut subquery.from),
                Predicate::Compare {
                    value: Value::Subquery(sq),
                    ..
                } => repair.fix_table(&mut sq.from),
                _ => {}
            }
        }
    }

    // Repair stale table-name qualifiers (aliases are left alone).
    q.visit_columns_mut(&mut |c: &mut ColumnRef| {
        if let Some(qual) = &mut c.qualifier {
            if !aliases.contains(&qual.to_ascii_lowercase()) {
                repair.fix_table(qual);
            }
        }
    });

    // Over-correction: occasionally "improve" a valid column.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdb6);
    if rng.gen_bool(overcorrect) {
        let mut valid_refs: Vec<String> = Vec::new();
        q.visit_columns(&mut |c: &ColumnRef| {
            if schema.has_column(&c.column) && c.column != "*" {
                valid_refs.push(c.column.clone());
            }
        });
        if !valid_refs.is_empty() {
            let victim = valid_refs[rng.gen_range(0..valid_refs.len())].clone();
            // Second-best candidate for the victim name.
            let (columns, scores) = repair.column_scores(&victim);
            let mut scored: Vec<(usize, f32)> = scores.into_iter().enumerate().collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((second, score)) = scored.get(1).copied() {
                if score > 0.0 && !columns[second].eq_ignore_ascii_case(&victim) {
                    q.visit_columns_mut(&mut |c: &mut ColumnRef| {
                        if c.column.eq_ignore_ascii_case(&victim) {
                            c.column = columns[second].to_string();
                        }
                    });
                }
            }
        }
    }

    format!("### Revised DVQ:\n# {}", Printer::default().print(&q))
}

fn alias_names(q: &Dvq) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(a) = &q.from.alias {
        out.push(a.to_ascii_lowercase());
    }
    for j in &q.joins {
        if let Some(a) = &j.table.alias {
            out.push(a.to_ascii_lowercase());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_schema;
    use crate::parse::SchemaTable;
    use t2v_corpus::Lexicon;
    use t2v_embed::EmbedConfig;

    fn embedder() -> TextEmbedder {
        TextEmbedder::new(
            Lexicon::builtin(),
            EmbedConfig {
                lexicon_coverage: 1.0,
                ..EmbedConfig::default()
            },
        )
    }

    fn schema() -> ParsedSchema<'static> {
        ParsedSchema {
            tables: vec![SchemaTable {
                name: "staff_member",
                columns: vec!["wage", "Dept_ID", "town"],
            }],
            foreign_keys: vec![],
        }
    }

    fn extract(answer: &str) -> String {
        answer
            .lines()
            .find_map(|l| l.trim().strip_prefix("# ").map(str::to_string))
            .unwrap()
    }

    #[test]
    fn stale_columns_are_replaced_via_annotations() {
        let e = embedder();
        let ann = annotate_schema(&schema(), &e, 0.0, 1);
        let out = extract(&debug_dvq(
            &schema(),
            &ann,
            "Visualize BAR SELECT SALARY , COUNT(SALARY) FROM staff_member GROUP BY SALARY",
            &e,
            None,
            0.0,
            1,
        ));
        assert_eq!(
            out,
            "Visualize BAR SELECT wage , COUNT(wage) FROM staff_member GROUP BY wage"
        );
    }

    #[test]
    fn valid_columns_are_untouched() {
        let e = embedder();
        let ann = annotate_schema(&schema(), &e, 0.0, 1);
        let original = "Visualize BAR SELECT town , COUNT(town) FROM staff_member GROUP BY town";
        let out = extract(&debug_dvq(&schema(), &ann, original, &e, None, 0.0, 1));
        assert_eq!(out, original);
    }

    #[test]
    fn unknown_tables_are_repaired() {
        let e = embedder();
        let ann = annotate_schema(&schema(), &e, 0.0, 1);
        let out = extract(&debug_dvq(
            &schema(),
            &ann,
            "Visualize BAR SELECT town , COUNT(town) FROM employees GROUP BY town",
            &e,
            None,
            0.0,
            1,
        ));
        assert!(out.contains("FROM staff_member"), "{out}");
    }

    #[test]
    fn consistent_replacement_across_occurrences() {
        let e = embedder();
        let ann = annotate_schema(&schema(), &e, 0.0, 1);
        let out = extract(&debug_dvq(
            &schema(),
            &ann,
            "Visualize BAR SELECT department_id , COUNT(department_id) FROM staff_member \
             ORDER BY department_id DESC",
            &e,
            None,
            0.0,
            1,
        ));
        assert_eq!(out.matches("Dept_ID").count(), 3, "{out}");
    }

    #[test]
    fn overcorrection_changes_a_valid_column_sometimes() {
        let e = embedder();
        let ann = annotate_schema(&schema(), &e, 0.0, 1);
        let original = "Visualize BAR SELECT town , COUNT(town) FROM staff_member GROUP BY town";
        let mut changed = 0;
        for seed in 0..20 {
            let out = extract(&debug_dvq(&schema(), &ann, original, &e, None, 1.0, seed));
            if out != original {
                changed += 1;
            }
        }
        assert!(changed > 0, "overcorrection never fired");
    }

    #[test]
    fn unparseable_input_passes_through() {
        let e = embedder();
        let out = debug_dvq(&schema(), "", "garbage input", &e, None, 0.0, 1);
        assert!(out.contains("garbage input"));
    }
}
