//! Prompt construction, following the paper's Appendix C formats verbatim:
//! C.1 database annotation, C.2 NLQ-Retrieval Generator, C.3 DVQ-Retrieval
//! Retuner, C.4 Annotation-based Debugger.

use crate::api::ChatMessage;
use std::borrow::Cow;
use std::fmt::Write;
use t2v_corpus::Database;

/// One in-context example for the generation prompt.
///
/// Fields are `Cow` so the GRED pipeline can assemble its prompt from
/// borrowed library entries without cloning four strings per retrieved hit;
/// owned construction (`String` / `&'static str` via `.into()`) still works
/// everywhere else.
#[derive(Debug, Clone)]
pub struct GenExample<'a> {
    pub db_id: Cow<'a, str>,
    pub schema_text: Cow<'a, str>,
    pub nlq: Cow<'a, str>,
    pub dvq: Cow<'a, str>,
}

/// C.1 — database annotation prompt.
pub fn annotation_prompt(db: &Database) -> Vec<ChatMessage> {
    let system =
        "You are a data mining engineer with ten years of experience in data visualization.";
    let mut user = String::new();
    user.push_str(
        "#### Please generate detailed natural language annotations to the following database schemas.\n",
    );
    user.push_str("### Database Schemas:\n");
    user.push_str(&db.render_prompt_schema());
    user.push_str("### Natural Language Annotations:\nA:\n");
    vec![ChatMessage::system(system), ChatMessage::user(user)]
}

/// A `String` with room for `pieces` and `fixed` more bytes, so a prompt is
/// written into one allocation.
fn sized_for<'a>(fixed: usize, pieces: impl IntoIterator<Item = &'a str>) -> String {
    String::with_capacity(fixed + pieces.into_iter().map(str::len).sum::<usize>())
}

const GENERATION_TASK: &str =
    "#### Given Natural Language Questions, Generate DVQs based on their correspoding Database Schemas.\n\n";
const SCHEMA_HEADER: &str = "### Database Schemas:\n";
const QUESTION_HEADER: &str =
    "#\n### Chart Type: [ BAR , PIE , LINE , SCATTER ]\n### Natural Language Question:\n# \"";
const QUERY_HEADER: &str = "\"\n### Data Visualization Query:\n";

/// C.2 — NLQ-Retrieval Generator prompt. `examples` must already be in the
/// desired order (GRED sorts them by *ascending* similarity so the most
/// similar example sits next to the question).
pub fn generation_prompt(
    examples: &[GenExample<'_>],
    schema_text: &str,
    nlq: &str,
) -> Vec<ChatMessage> {
    let system = "Please follow the syntax in the examples instead of SQL syntax.";
    const BLOCK: usize = SCHEMA_HEADER.len() + QUESTION_HEADER.len() + QUERY_HEADER.len();
    let mut user = sized_for(
        GENERATION_TASK.len() + (examples.len() + 1) * (BLOCK + "A: \n\n".len()),
        examples
            .iter()
            .flat_map(|ex| [&*ex.schema_text, &*ex.nlq, &*ex.dvq])
            .chain([schema_text, nlq]),
    );
    user.push_str(GENERATION_TASK);
    for ex in examples {
        user.extend([
            SCHEMA_HEADER,
            &ex.schema_text,
            QUESTION_HEADER,
            &ex.nlq,
            QUERY_HEADER,
            "A: ",
            &ex.dvq,
            "\n\n",
        ]);
    }
    user.extend([
        SCHEMA_HEADER,
        schema_text,
        QUESTION_HEADER,
        nlq,
        QUERY_HEADER,
    ]);
    vec![ChatMessage::system(system), ChatMessage::user(user)]
}

const RETUNE_TASK: &str = "\n#### Given the Reference DVQs, please modify the Original DVQ to mimic the style of the Reference DVQs.\n\
    #### NOTE: Do not Modify the column name in Original DVQ. Especially do not Modify the column names in the ORDER clause!\n";
const ORIGINAL_HEADER: &str = "### Original DVQ:\n# ";
const STEP_BY_STEP: &str = "\nA: Let's think step by step!\n";

/// C.3 — DVQ-Retrieval Retuner prompt.
pub fn retune_prompt<S: AsRef<str>>(reference_dvqs: &[S], original_dvq: &str) -> Vec<ChatMessage> {
    let system =
        "The Reference Data Visualization Queries(DVQs) all comply with the syntax of DVQ. \
                  Please follow the syntax of the referenced DVQ to modify the Original DVQ.";
    const REFERENCES_HEADER: &str = "### Reference DVQs:\n";
    let mut user = sized_for(
        REFERENCES_HEADER.len()
            + reference_dvqs.len() * "1000 - \n".len()
            + RETUNE_TASK.len()
            + ORIGINAL_HEADER.len()
            + STEP_BY_STEP.len(),
        reference_dvqs
            .iter()
            .map(AsRef::as_ref)
            .chain([original_dvq]),
    );
    user.push_str(REFERENCES_HEADER);
    for (i, dvq) in reference_dvqs.iter().enumerate() {
        write!(user, "{} - ", i + 1).expect("writing to a String cannot fail");
        user.push_str(dvq.as_ref());
        user.push('\n');
    }
    user.extend([RETUNE_TASK, ORIGINAL_HEADER, original_dvq, STEP_BY_STEP]);
    vec![ChatMessage::system(system), ChatMessage::user(user)]
}

const DEBUG_TASK: &str =
    "\n#### Given Database Schemas and their corresponding Natural Language Annotations, \
    Please replace the column names in the Data Visualization Query(DVQ, a new Programming \
    Language abstracted from Vega-Zero) that do not exist in the database.\n\
    #### NOTE: Don't replace column names in Original DVQ that already exist in the database \
    schemas, especially column names in GROUP BY Clause!\n";

/// C.4 — Annotation-based Debugger prompt.
pub fn debug_prompt(schema_text: &str, annotations: &str, original_dvq: &str) -> Vec<ChatMessage> {
    let system = "#### NOTE: Don't replace column names in Original DVQ that already exist in the \
                  database schemas, especially column names in GROUP BY Clause!";
    let pieces = [
        "#### Please generate detailed natural language annotations to the following database schemas.\n",
        SCHEMA_HEADER,
        schema_text,
        "### Natural Language Annotations:\n",
        annotations,
        DEBUG_TASK,
        ORIGINAL_HEADER,
        original_dvq,
        STEP_BY_STEP,
    ];
    let mut user = sized_for(0, pieces);
    user.extend(pieces);
    vec![ChatMessage::system(system), ChatMessage::user(user)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};

    #[test]
    fn annotation_prompt_contains_schema_block() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let msgs = annotation_prompt(&corpus.databases[0]);
        assert_eq!(msgs.len(), 2);
        assert!(msgs[1].content.contains("### Database Schemas:"));
        assert!(msgs[1].content.contains("# Table "));
        assert!(msgs[1].content.contains("Foreign_keys"));
    }

    #[test]
    fn generation_prompt_lists_examples_then_question() {
        let ex = GenExample {
            db_id: "hr_1".into(),
            schema_text: "# Table employees, columns = [ * , SALARY ]\n# Foreign_keys = [  ]\n"
                .into(),
            nlq: "Show salaries.".into(),
            dvq: "Visualize BAR SELECT SALARY , COUNT(SALARY) FROM employees GROUP BY SALARY"
                .into(),
        };
        let msgs = generation_prompt(
            &[ex],
            "# Table pets, columns = [ * , weight ]\n# Foreign_keys = [  ]\n",
            "Show pet weights.",
        );
        let body = &msgs[1].content;
        let ex_pos = body.find("Show salaries.").unwrap();
        let q_pos = body.find("Show pet weights.").unwrap();
        assert!(ex_pos < q_pos, "examples must precede the question");
        assert!(body.ends_with("### Data Visualization Query:\n"));
    }

    #[test]
    fn retune_prompt_numbers_references() {
        let msgs = retune_prompt(
            &[
                "Visualize BAR SELECT a , b FROM t",
                "Visualize PIE SELECT c , d FROM u",
            ],
            "Visualize BAR SELECT a , b FROM t WHERE c IS NOT NULL",
        );
        assert!(msgs[1].content.contains("1 - Visualize BAR"));
        assert!(msgs[1].content.contains("2 - Visualize PIE"));
        assert!(msgs[1].content.contains("Do not Modify the column name"));
    }

    #[test]
    fn debug_prompt_contains_annotations_and_dvq() {
        let msgs = debug_prompt(
            "# Table t, columns = [ * , a ]\n# Foreign_keys = [  ]\n",
            "Table t:\n- Columns:\n  - a: something\n",
            "Visualize BAR SELECT z , COUNT(z) FROM t GROUP BY z",
        );
        assert!(msgs[1].content.contains("Natural Language Annotations"));
        assert!(msgs[1].content.contains("SELECT z"));
    }
}
