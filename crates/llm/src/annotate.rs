//! Database annotation generation (paper §4.1 / Appendix C.1).
//!
//! The simulated LLM writes one bullet per column. When it *recognises* a
//! column name as a lexicalisation of a concept it knows, the gloss includes
//! the concept's canonical phrase — e.g. `wage: The wage (salary) of the
//! record.`. Those parenthesised canonical anchors are precisely what lets
//! the Annotation-based Debugger later map a stale column name onto the
//! renamed schema. With probability `annotation_noise` a column gets a bland
//! gloss instead, modelling annotation misses.

use crate::parse::ParsedSchema;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use t2v_embed::TextEmbedder;

/// Generate annotations for a parsed schema.
pub fn annotate_schema(
    schema: &ParsedSchema,
    embedder: &TextEmbedder,
    noise: f64,
    seed: u64,
) -> String {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa770);
    let mut out = String::new();
    for t in &schema.tables {
        out.push_str(&format!("Table {}:\n", t.name));
        out.push_str(&format!(
            "- Stores records related to {}.\n",
            t.name.replace('_', " ").to_ascii_lowercase()
        ));
        out.push_str("- Columns:\n");
        for c in &t.columns {
            let gloss = if rng.gen_bool(noise) {
                String::new()
            } else {
                canonical_gloss(c, embedder)
            };
            let words = c.replace('_', " ").to_ascii_lowercase();
            if gloss.is_empty() {
                out.push_str(&format!("  - {c}: The {words} value of the record.\n"));
            } else {
                out.push_str(&format!("  - {c}: The {words} ({gloss}) of the record.\n"));
            }
        }
    }
    if !schema.foreign_keys.is_empty() {
        out.push_str("Foreign Keys:\n");
        for (ft, fc, tt, tc) in &schema.foreign_keys {
            out.push_str(&format!(
                "- {ft}.{fc} references {tt}.{tc}, linking {ft} to {tt}.\n"
            ));
        }
    }
    out
}

/// Canonical synonym phrases for the concepts the model recognises inside a
/// column name ("wage" → "salary"; "Dept_ID" → "department identifier").
fn canonical_gloss(column: &str, embedder: &TextEmbedder) -> String {
    let lex = embedder.lexicon();
    let words = TextEmbedder::tokenize(column);
    let mut glosses: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < words.len() {
        let mut advanced = false;
        for len in (1..=3usize).rev() {
            if i + len > words.len() {
                continue;
            }
            let phrase = words[i..i + len].join(" ");
            if let Some(ci) = lex.concept_of_phrase_stemmed(&phrase) {
                let alt = lex.concepts[ci]
                    .alts
                    .iter()
                    .position(|a| a.join(" ") == phrase)
                    .unwrap_or(0);
                if embedder.knows(ci, alt) {
                    let primary = lex.concepts[ci].primary().join(" ");
                    if primary != phrase {
                        glosses.push(primary);
                    }
                    i += len;
                    advanced = true;
                    break;
                }
            }
        }
        if !advanced {
            i += 1;
        }
    }
    glosses.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::SchemaTable;
    use t2v_corpus::Lexicon;
    use t2v_embed::EmbedConfig;

    fn schema() -> ParsedSchema<'static> {
        ParsedSchema {
            tables: vec![SchemaTable {
                name: "staff_member",
                columns: vec!["wage", "Dept_ID", "CITY"],
            }],
            foreign_keys: vec![("staff_member", "Dept_ID", "division", "division_key")],
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

    #[test]
    fn gloss_anchors_canonical_synonyms() {
        let text = annotate_schema(&schema(), &embedder(), 0.0, 1);
        assert!(text.contains("wage: The wage (salary)"), "{text}");
        assert!(text.contains("Dept_ID: The dept id (department"), "{text}");
    }

    #[test]
    fn unknown_words_get_bland_gloss() {
        let text = annotate_schema(&schema(), &embedder(), 0.0, 1);
        // CITY is a primary form; gloss adds nothing beyond itself.
        assert!(
            text.contains("CITY: The city value of the record.")
                || text.contains("CITY: The city (")
        );
    }

    #[test]
    fn noise_suppresses_glosses() {
        let none = annotate_schema(&schema(), &embedder(), 1.0, 1);
        assert!(!none.contains("(salary)"));
    }

    #[test]
    fn foreign_keys_are_described() {
        let text = annotate_schema(&schema(), &embedder(), 0.0, 1);
        assert!(text.contains("references division.division_key"));
    }

    #[test]
    fn annotation_roundtrips_through_parser() {
        let text = annotate_schema(&schema(), &embedder(), 0.0, 1);
        let parsed = crate::parse::parse_annotations(&text);
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, "wage");
        assert!(parsed[0].1.contains("salary"));
    }
}
