//! Prompt parsing — how the simulated LLM "reads" its input.
//!
//! The model receives only the rendered prompt text (exactly what GPT-3.5
//! would see) and recovers structure from the Appendix C layouts. Every
//! parsed field is a slice of that text: reading a prompt copies none of
//! it, and the schema blocks of in-context examples — which generation
//! never consults — are kept as text, not parsed.

/// A table as read from a prompt schema block.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaTable<'a> {
    pub name: &'a str,
    pub columns: Vec<&'a str>,
}

/// A parsed `### Database Schemas:` block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedSchema<'a> {
    pub tables: Vec<SchemaTable<'a>>,
    /// (from_table, from_column, to_table, to_column)
    pub foreign_keys: Vec<(&'a str, &'a str, &'a str, &'a str)>,
}

impl<'a> ParsedSchema<'a> {
    /// All column names across tables.
    pub fn all_columns(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.tables
            .iter()
            .flat_map(|t| t.columns.iter().map(move |&c| (t.name, c)))
    }

    pub fn has_column(&self, name: &str) -> bool {
        self.all_columns()
            .any(|(_, c)| c.eq_ignore_ascii_case(name))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables
            .iter()
            .any(|t| t.name.eq_ignore_ascii_case(name))
    }
}

/// Parse schema lines (`# Table X, columns = [ * , A , B ]`).
pub fn parse_schema(text: &str) -> ParsedSchema<'_> {
    let mut out = ParsedSchema::default();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("# Table ") {
            if let Some((name, cols)) = rest.split_once(", columns = [") {
                let cols = cols.trim_end_matches(']');
                let columns: Vec<&str> = cols
                    .split(',')
                    .map(str::trim)
                    .filter(|c| !c.is_empty() && *c != "*")
                    .collect();
                out.tables.push(SchemaTable {
                    name: name.trim(),
                    columns,
                });
            }
        } else if let Some(rest) = line.strip_prefix("# Foreign_keys = [") {
            let body = rest.trim_end_matches(']');
            for pair in body.split(',') {
                if let Some((l, r)) = pair.split_once('=') {
                    if let (Some((lt, lc)), Some((rt, rc))) =
                        (l.trim().split_once('.'), r.trim().split_once('.'))
                    {
                        out.foreign_keys.push((lt, lc, rt, rc));
                    }
                }
            }
        }
    }
    out
}

/// One in-context example of a generation prompt. Its schema block stays
/// text ([`parse_schema`] reads it if anyone ever asks).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedExample<'a> {
    pub schema_text: &'a str,
    pub nlq: &'a str,
    pub dvq: &'a str,
}

/// A parsed C.2 generation prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedGeneration<'a> {
    pub examples: Vec<ParsedExample<'a>>,
    pub schema: ParsedSchema<'a>,
    pub nlq: &'a str,
}

const SCHEMA_HEADER: &str = "### Database Schemas:";
const NLQ_HEADER: &str = "### Natural Language Question:";
const DVQ_HEADER: &str = "### Data Visualization Query:";

/// Where the headers of one `### Database Schemas:` block sit in the prompt.
/// A block runs from the end of its schema header to the next schema
/// header, or to the end of the prompt.
struct Block {
    start: usize,
    /// Start of the block's first question header.
    question: Option<usize>,
    /// Start of the first query header after that question header.
    question_end: Option<usize>,
    /// Starts of the block's first and second query headers.
    query: Option<usize>,
    next_query: Option<usize>,
}

/// Parse the generation prompt body.
///
/// One pass over the prompt visits every `#` and sorts the ones that start
/// a header into the three headers (no header can start inside another),
/// so the blocks split where splitting the text at each header would split
/// them — a question that quotes a header mid-line included.
/// A block whose query header is followed by `A:` is an in-context example;
/// the last block without one holds the question and the target schema.
pub fn parse_generation(text: &str) -> Option<ParsedGeneration<'_>> {
    let mut examples = Vec::new();
    let mut last: Option<(&str, &str)> = None;
    let mut close = |b: Block, end: usize| -> Option<()> {
        let question = b.question?;
        let nlq = text[question + NLQ_HEADER.len()..b.question_end.unwrap_or(end)]
            .trim()
            .trim_start_matches('#')
            .trim()
            .trim_matches('"');
        if let Some(query) = b.query {
            let answer = &text[query + DVQ_HEADER.len()..b.next_query.unwrap_or(end)];
            if let Some(dvq) = answer.trim().strip_prefix("A:") {
                examples.push(ParsedExample {
                    schema_text: &text[b.start..question],
                    nlq,
                    dvq: dvq.trim().lines().next().unwrap_or("").trim(),
                });
                return Some(());
            }
        }
        last = Some((&text[b.start..end], nlq));
        Some(())
    };
    let mut block: Option<Block> = None;
    for (at, _) in text.match_indices('#') {
        let header = &text[at..];
        if !header.starts_with("### ") {
            continue;
        }
        if header.starts_with(SCHEMA_HEADER) {
            if let Some(b) = block.take() {
                close(b, at)?;
            }
            block = Some(Block {
                start: at + SCHEMA_HEADER.len(),
                question: None,
                question_end: None,
                query: None,
                next_query: None,
            });
        } else if let Some(b) = &mut block {
            if header.starts_with(NLQ_HEADER) {
                b.question.get_or_insert(at);
            } else if header.starts_with(DVQ_HEADER) {
                if b.question.is_some() {
                    b.question_end.get_or_insert(at);
                }
                if b.query.is_none() {
                    b.query = Some(at);
                } else {
                    b.next_query.get_or_insert(at);
                }
            }
        }
    }
    close(block?, text.len())?;
    let (block, nlq) = last?;
    Some(ParsedGeneration {
        examples,
        schema: parse_schema(block),
        nlq,
    })
}

/// Parse the C.3 retune prompt: reference DVQs + original DVQ.
pub fn parse_retune(text: &str) -> Option<(Vec<&str>, &str)> {
    let refs_block = between(text, "### Reference DVQs:", "####")?;
    let mut refs = Vec::new();
    for line in refs_block.lines() {
        let line = line.trim();
        if let Some(pos) = line.find(" - ") {
            let candidate = &line[pos + 3..];
            if candidate.starts_with("Visualize") {
                refs.push(candidate.trim());
            }
        }
    }
    let original = original_dvq(text)?;
    Some((refs, original))
}

/// Parse the C.4 debug prompt: schema, annotations, original DVQ.
pub fn parse_debug(text: &str) -> Option<(ParsedSchema<'_>, &str, &str)> {
    let schema_block = between(
        text,
        "### Database Schemas:",
        "### Natural Language Annotations:",
    )?;
    let schema = parse_schema(schema_block);
    let annotations = between(
        text,
        "### Natural Language Annotations:",
        "#### Given Database Schemas",
    )?;
    let original = original_dvq(text)?;
    Some((schema, annotations, original))
}

/// Parse the C.1 annotation prompt: just the schema block.
pub fn parse_annotation_request(text: &str) -> Option<ParsedSchema<'_>> {
    let block = between(
        text,
        "### Database Schemas:",
        "### Natural Language Annotations:",
    )?;
    let schema = parse_schema(block);
    if schema.tables.is_empty() {
        None
    } else {
        Some(schema)
    }
}

fn original_dvq(text: &str) -> Option<&str> {
    let pos = text.rfind("### Original DVQ:")?;
    let rest = &text[pos..];
    for line in rest.lines().skip(1) {
        let line = line.trim();
        if let Some(stripped) = line.strip_prefix('#') {
            let s = stripped.trim();
            if !s.is_empty() {
                return Some(s);
            }
        }
    }
    None
}

fn between<'a>(text: &'a str, start: &str, end: &str) -> Option<&'a str> {
    let s = text.find(start)? + start.len();
    let rest = &text[s..];
    let e = rest.find(end).unwrap_or(rest.len());
    Some(&rest[..e])
}

/// Annotation lookup: (column name as written, description text). Column
/// names compare case-insensitively.
pub fn parse_annotations(text: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("- ") {
            if let Some((name, desc)) = rest.split_once(':') {
                let name = name.trim();
                // Skip table-level bullets ("Stores data related to ...").
                if !name.contains(' ') && !desc.trim().is_empty() {
                    out.push((name, desc.trim()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts;
    use t2v_corpus::{generate, CorpusConfig};

    #[test]
    fn schema_roundtrip_through_prompt_format() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let db = &corpus.databases[0];
        let text = db.render_prompt_schema();
        let parsed = parse_schema(&text);
        assert_eq!(parsed.tables.len(), db.tables.len());
        for (t, pt) in db.tables.iter().zip(parsed.tables.iter()) {
            assert_eq!(t.name, pt.name);
            assert_eq!(
                t.columns
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>(),
                pt.columns
            );
        }
        assert_eq!(parsed.foreign_keys.len(), db.foreign_keys.len());
    }

    #[test]
    fn generation_prompt_roundtrip() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let db = &corpus.databases[0];
        let examples: Vec<prompts::GenExample> = corpus.train[..3]
            .iter()
            .map(|e| prompts::GenExample {
                db_id: corpus.databases[e.db].id.clone().into(),
                schema_text: corpus.databases[e.db].render_prompt_schema().into(),
                nlq: e.nlq.clone().into(),
                dvq: e.dvq_text.clone().into(),
            })
            .collect();
        let msgs =
            prompts::generation_prompt(&examples, &db.render_prompt_schema(), "Show things.");
        let parsed = parse_generation(&msgs[1].content).unwrap();
        assert_eq!(parsed.examples.len(), 3);
        assert_eq!(parsed.examples[0].nlq, corpus.train[0].nlq);
        assert_eq!(parsed.examples[2].dvq, corpus.train[2].dvq_text);
        assert_eq!(parsed.nlq, "Show things.");
        assert!(!parsed.schema.tables.is_empty());
    }

    #[test]
    fn retune_prompt_roundtrip() {
        let refs = vec![
            "Visualize BAR SELECT a , b FROM t".to_string(),
            "Visualize PIE SELECT c , COUNT(c) FROM u GROUP BY c".to_string(),
        ];
        let msgs = prompts::retune_prompt(&refs, "Visualize BAR SELECT a , b FROM t WHERE x <> 1");
        let (parsed_refs, original) = parse_retune(&msgs[1].content).unwrap();
        assert_eq!(parsed_refs, refs);
        assert_eq!(original, "Visualize BAR SELECT a , b FROM t WHERE x <> 1");
    }

    #[test]
    fn debug_prompt_roundtrip() {
        let msgs = prompts::debug_prompt(
            "# Table t, columns = [ * , wage , city ]\n# Foreign_keys = [  ]\n",
            "Table t:\n- Columns:\n  - wage: The wage (salary).\n  - city: The city.\n",
            "Visualize BAR SELECT salary , COUNT(salary) FROM t GROUP BY salary",
        );
        let (schema, ann, original) = parse_debug(&msgs[1].content).unwrap();
        assert!(schema.has_column("wage"));
        assert!(ann.contains("The wage (salary)"));
        assert!(original.starts_with("Visualize BAR SELECT salary"));
        let lookup = parse_annotations(ann);
        assert_eq!(lookup.len(), 2);
        assert_eq!(lookup[0].0, "wage");
    }

    #[test]
    fn annotation_request_roundtrip() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let msgs = prompts::annotation_prompt(&corpus.databases[1]);
        let parsed = parse_annotation_request(&msgs[1].content).unwrap();
        assert_eq!(parsed.tables.len(), corpus.databases[1].tables.len());
    }

    /// The readers as they were when they copied: every field an owned
    /// `String`, every example's schema block parsed. The oracle for
    /// [`borrowed_readers_return_what_the_owned_ones_did`].
    mod owned {
        pub type Schema = (
            Vec<(String, Vec<String>)>,
            Vec<(String, String, String, String)>,
        );

        pub fn parse_schema(text: &str) -> Schema {
            let mut out: Schema = Default::default();
            for line in text.lines() {
                let line = line.trim();
                if let Some(rest) = line.strip_prefix("# Table ") {
                    if let Some((name, cols)) = rest.split_once(", columns = [") {
                        let cols = cols.trim_end_matches(']');
                        let columns: Vec<String> = cols
                            .split(',')
                            .map(str::trim)
                            .filter(|c| !c.is_empty() && *c != "*")
                            .map(str::to_string)
                            .collect();
                        out.0.push((name.trim().to_string(), columns));
                    }
                } else if let Some(rest) = line.strip_prefix("# Foreign_keys = [") {
                    let body = rest.trim_end_matches(']');
                    for pair in body.split(',') {
                        if let Some((l, r)) = pair.split_once('=') {
                            let parse_ref = |s: &str| -> Option<(String, String)> {
                                let (t, c) = s.trim().split_once('.')?;
                                Some((t.to_string(), c.to_string()))
                            };
                            if let (Some((lt, lc)), Some((rt, rc))) = (parse_ref(l), parse_ref(r)) {
                                out.1.push((lt, lc, rt, rc));
                            }
                        }
                    }
                }
            }
            out
        }

        /// (examples as (schema, nlq, dvq), final schema, final nlq).
        pub type Generation = (Vec<(Schema, String, String)>, Schema, String);

        pub fn parse_generation(text: &str) -> Option<Generation> {
            let mut examples = Vec::new();
            let mut final_block: Option<(Schema, String)> = None;
            for block in text.split("### Database Schemas:").skip(1) {
                let schema = parse_schema(block);
                let nlq = between(
                    block,
                    "### Natural Language Question:",
                    "### Data Visualization Query:",
                )
                .map(|s| {
                    s.trim()
                        .trim_start_matches('#')
                        .trim()
                        .trim_matches('"')
                        .to_string()
                })?;
                if let Some(answer) = block.split("### Data Visualization Query:").nth(1) {
                    let answer = answer.trim();
                    if let Some(dvq) = answer.strip_prefix("A:") {
                        let dvq_line = dvq.trim().lines().next().unwrap_or("").trim().to_string();
                        examples.push((schema, nlq, dvq_line));
                        continue;
                    }
                }
                final_block = Some((schema, nlq));
            }
            let (schema, nlq) = final_block?;
            Some((examples, schema, nlq))
        }

        pub fn parse_retune(text: &str) -> Option<(Vec<String>, String)> {
            let refs_block = between(text, "### Reference DVQs:", "####")?;
            let mut refs = Vec::new();
            for line in refs_block.lines() {
                let line = line.trim();
                if let Some(pos) = line.find(" - ") {
                    let candidate = &line[pos + 3..];
                    if candidate.starts_with("Visualize") {
                        refs.push(candidate.trim().to_string());
                    }
                }
            }
            let original = original_dvq(text)?;
            Some((refs, original))
        }

        pub fn parse_debug(text: &str) -> Option<(Schema, String, String)> {
            let schema_block = between(
                text,
                "### Database Schemas:",
                "### Natural Language Annotations:",
            )?;
            let schema = parse_schema(&schema_block);
            let annotations = between(
                text,
                "### Natural Language Annotations:",
                "#### Given Database Schemas",
            )?;
            let original = original_dvq(text)?;
            Some((schema, annotations, original))
        }

        fn original_dvq(text: &str) -> Option<String> {
            let pos = text.rfind("### Original DVQ:")?;
            let rest = &text[pos..];
            for line in rest.lines().skip(1) {
                let line = line.trim();
                if let Some(stripped) = line.strip_prefix('#') {
                    let s = stripped.trim();
                    if !s.is_empty() {
                        return Some(s.to_string());
                    }
                }
            }
            None
        }

        fn between(text: &str, start: &str, end: &str) -> Option<String> {
            let s = text.find(start)? + start.len();
            let rest = &text[s..];
            let e = rest.find(end).unwrap_or(rest.len());
            Some(rest[..e].to_string())
        }

        pub fn parse_annotations(text: &str) -> Vec<(String, String)> {
            let mut out = Vec::new();
            for line in text.lines() {
                let line = line.trim();
                if let Some(rest) = line.strip_prefix("- ") {
                    if let Some((name, desc)) = rest.split_once(':') {
                        let name = name.trim();
                        if !name.contains(' ') && !desc.trim().is_empty() {
                            out.push((name.to_ascii_lowercase(), desc.trim().to_string()));
                        }
                    }
                }
            }
            out
        }
    }

    fn owned_schema(s: &ParsedSchema) -> owned::Schema {
        (
            s.tables
                .iter()
                .map(|t| {
                    (
                        t.name.to_string(),
                        t.columns.iter().map(|c| c.to_string()).collect(),
                    )
                })
                .collect(),
            s.foreign_keys
                .iter()
                .map(|&(a, b, c, d)| (a.into(), b.into(), c.into(), d.into()))
                .collect(),
        )
    }

    /// A generation read, as the fields the owned reader also returned: each
    /// example's question and DVQ, the target schema and the question. (An
    /// example's schema is kept as the text before its question header; the
    /// owned reader parsed its whole block, question included, so the two
    /// differ on an example whose question writes `# Table` lines — which
    /// generation never reads.)
    type Read = (Vec<(String, String)>, owned::Schema, String);

    fn read_fields(g: &ParsedGeneration) -> Read {
        (
            g.examples
                .iter()
                .map(|ex| (ex.nlq.to_string(), ex.dvq.to_string()))
                .collect(),
            owned_schema(&g.schema),
            g.nlq.to_string(),
        )
    }

    fn owned_read((examples, schema, nlq): owned::Generation) -> Read {
        let examples = examples.into_iter().map(|(_, q, d)| (q, d)).collect();
        (examples, schema, nlq)
    }

    /// Over every kind of prompt the four renderers produce from `tiny(7)`
    /// — each database's annotation and debug prompt, and for a spread of
    /// dev questions generation prompts with 0..=10 examples and retune
    /// prompts with 0..=10 references — the borrowed readers return field
    /// for field what the owned ones returned. An example's schema block is
    /// no longer parsed by the reader; parsing the kept text must still
    /// give what the owned reader got from the block. Then the same for
    /// generation prompts whose questions quote the prompt's headers.
    #[test]
    fn borrowed_readers_return_what_the_owned_ones_did() {
        use crate::api::{ChatModel, ChatParams};
        let corpus = generate(&CorpusConfig::tiny(7));
        let model = crate::SimulatedChatModel::new(crate::LlmConfig::default());
        let schema_of = |db: usize| corpus.databases[db].render_prompt_schema();

        for (di, db) in corpus.databases.iter().enumerate() {
            let request = &prompts::annotation_prompt(db)[1].content;
            assert_eq!(
                owned_schema(&parse_annotation_request(request).unwrap()),
                owned::parse_schema(request.split("### Database Schemas:").nth(1).unwrap()),
            );
            let annotations =
                model.complete(&prompts::annotation_prompt(db), &ChatParams::annotation());
            let lookup = parse_annotations(&annotations);
            assert!(!lookup.is_empty());
            let want = owned::parse_annotations(&annotations);
            assert_eq!(lookup.len(), want.len());
            for ((name, desc), (want_name, want_desc)) in lookup.iter().zip(&want) {
                assert_eq!(&name.to_ascii_lowercase(), want_name);
                assert_eq!(desc, want_desc);
            }

            let original = &corpus.dev[di].dvq_text;
            let prompt = &prompts::debug_prompt(&schema_of(di), &annotations, original)[1].content;
            let (schema, ann, dvq) = parse_debug(prompt).unwrap();
            let (want_schema, want_ann, want_dvq) = owned::parse_debug(prompt).unwrap();
            assert_eq!(owned_schema(&schema), want_schema);
            assert_eq!((ann, dvq), (want_ann.as_str(), want_dvq.as_str()));
        }

        for (qi, question) in corpus.dev.iter().enumerate().take(44) {
            let shots = &corpus.train[qi * 5..][..qi % 11];
            let examples: Vec<prompts::GenExample> = shots
                .iter()
                .map(|e| prompts::GenExample {
                    db_id: corpus.databases[e.db].id.as_str().into(),
                    schema_text: schema_of(e.db).into(),
                    nlq: e.nlq.as_str().into(),
                    dvq: e.dvq_text.as_str().into(),
                })
                .collect();
            let prompt =
                &prompts::generation_prompt(&examples, &schema_of(question.db), &question.nlq)[1]
                    .content;
            let parsed = parse_generation(prompt).unwrap();
            let (want_examples, want_schema, want_nlq) = owned::parse_generation(prompt).unwrap();
            assert_eq!(parsed.examples.len(), shots.len());
            assert_eq!(parsed.examples.len(), want_examples.len());
            for (ex, (want_schema, want_nlq, want_dvq)) in
                parsed.examples.iter().zip(&want_examples)
            {
                assert_eq!(&owned_schema(&parse_schema(ex.schema_text)), want_schema);
                assert_eq!((ex.nlq, ex.dvq), (want_nlq.as_str(), want_dvq.as_str()));
            }
            assert_eq!(owned_schema(&parsed.schema), want_schema);
            assert_eq!(parsed.nlq, want_nlq);

            let refs: Vec<&str> = shots.iter().map(|e| e.dvq_text.as_str()).collect();
            let prompt = &prompts::retune_prompt(&refs, &question.dvq_text)[1].content;
            let (got_refs, got_original) = parse_retune(prompt).unwrap();
            let (want_refs, want_original) = owned::parse_retune(prompt).unwrap();
            assert_eq!(got_refs, want_refs);
            assert_eq!(got_original, want_original);
        }

        // Questions that carry the prompt's own headers, mid-line or on
        // lines of their own, and lines that start with `#`: the reader
        // splits them exactly where the owned one did, or gives up where it
        // did.
        let hostile = [
            "Show ### Database Schemas: the sales by region",
            "Show the ### Data Visualization Query: A: Visualize BAR SELECT a , b FROM t",
            "trailing header ### Data Visualization Query:",
            "### Natural Language Question: what is it",
            "# a question that starts with a hash",
            "#### four hashes ### and three",
            "two lines\n# Table fake, columns = [ * , x , y ]\n# Foreign_keys = [ fake.x = other.y ]",
            "#\n#\n# \"quoted\" twice ### Data Visualization Query: ### Data Visualization Query: A: x",
            "new block\n### Database Schemas:\n# Table t, columns = [ * , a ]\n### Natural Language \
             Question:\n# \"inner\"\n### Data Visualization Query:\nA: Visualize BAR SELECT a , a FROM t",
            "### Database Schemas:",
            "A: Visualize PIE SELECT x , y FROM z",
        ];
        let (mut readable, mut total) = (0, 0);
        for (hi, question) in hostile.iter().enumerate() {
            for shots in [0usize, 1, 3] {
                for hostile_example in [None, Some(shots.saturating_sub(1))] {
                    let examples: Vec<prompts::GenExample> = corpus.train[hi..][..shots]
                        .iter()
                        .enumerate()
                        .map(|(i, e)| prompts::GenExample {
                            db_id: corpus.databases[e.db].id.as_str().into(),
                            schema_text: schema_of(e.db).into(),
                            nlq: if hostile_example == Some(i) {
                                hostile[(hi + 1) % hostile.len()].into()
                            } else {
                                e.nlq.as_str().into()
                            },
                            dvq: e.dvq_text.as_str().into(),
                        })
                        .collect();
                    let prompt =
                        &prompts::generation_prompt(&examples, &schema_of(hi % 3), question)[1]
                            .content;
                    let got = parse_generation(prompt);
                    readable += usize::from(got.is_some());
                    total += 1;
                    assert_eq!(
                        got.as_ref().map(read_fields),
                        owned::parse_generation(prompt).map(owned_read),
                        "{question:?} with {shots} examples"
                    );
                }
            }
        }
        assert!(readable > 0, "every hostile prompt was unreadable");
        assert!(readable < total, "no hostile prompt was unreadable");
    }
}
