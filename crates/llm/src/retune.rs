//! DVQ style retuning (the behaviour behind Appendix C.3 prompts).
//!
//! Infers the dominant style of the reference DVQs (null-test spelling,
//! `!=` vs `<>`, explicit `ASC`, join aliasing) and re-prints the original
//! under it, *without touching column names* — the constraint the paper's
//! prompt states twice. With probability `1 - retune_fidelity` the model
//! returns the original unchanged (modelling an ignored instruction).

use crate::memo::{ContextMemo, StyleEvidence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use t2v_dvq::ast::{ColumnRef, Dvq, SortDir};
use t2v_dvq::printer::Printer;

/// Retune `original` toward the style of `references`. `memo`, when given,
/// keeps each reference's style evidence across calls, so a reference
/// the model has read before is not parsed again.
pub fn retune_dvq<S: AsRef<str>>(
    references: &[S],
    original: &str,
    fidelity: f64,
    seed: u64,
    memo: Option<&ContextMemo>,
) -> String {
    let Ok(mut q) = t2v_dvq::parse(original) else {
        return format!("### Modified DVQ:\n# {original}");
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4e7);
    if !rng.gen_bool(fidelity) {
        return format!("### Modified DVQ:\n# {original}");
    }

    let mut evidence = StyleEvidence::default();
    for r in references {
        let r = r.as_ref();
        let one = match memo {
            Some(memo) => memo.style(r),
            None => StyleEvidence::of(r),
        };
        if let Some(one) = one {
            evidence.merge(&one);
        }
    }
    if evidence.vote.samples() == 0 {
        return format!("### Modified DVQ:\n# {original}");
    }
    let profile = evidence.vote.profile();

    // Explicit-direction style: strip a written ASC when the references
    // mostly leave ascending implicit (the printer can only *add* ASC).
    if evidence.vote.implicit_dir_majority() {
        if let Some(o) = &mut q.order_by {
            if o.dir == Some(SortDir::Asc) {
                o.dir = None;
            }
        }
    }

    // Join-alias style by reference majority.
    let (aliased, plain) = (evidence.aliased_joins, evidence.plain_joins);
    if aliased + plain > 0 && !q.joins.is_empty() {
        set_alias_usage(&mut q, aliased >= plain);
    }

    let text = Printer::new(profile).print(&q);
    format!("### Modified DVQ:\n# {text}")
}

/// Rewrite a joined query to use (or not use) `AS T1`/`AS T2` aliases,
/// re-pointing column qualifiers accordingly.
pub fn set_alias_usage(q: &mut Dvq, use_aliases: bool) {
    if q.joins.is_empty() {
        return;
    }
    if use_aliases {
        if q.from.alias.is_some() {
            return;
        }
        let from_name = q.from.name.to_ascii_lowercase();
        let join_names: Vec<String> = q
            .joins
            .iter()
            .map(|j| j.table.name.to_ascii_lowercase())
            .collect();
        q.from.alias = Some("T1".into());
        for (i, j) in q.joins.iter_mut().enumerate() {
            j.table.alias = Some(format!("T{}", i + 2));
        }
        q.visit_columns_mut(&mut |c: &mut ColumnRef| {
            if let Some(qual) = &c.qualifier {
                let lower = qual.to_ascii_lowercase();
                if lower == from_name {
                    c.qualifier = Some("T1".into());
                } else if let Some(pos) = join_names.iter().position(|n| *n == lower) {
                    c.qualifier = Some(format!("T{}", pos + 2));
                }
            }
        });
    } else {
        if q.from.alias.is_none() {
            return;
        }
        let mut alias_map: Vec<(String, String)> = Vec::new();
        if let Some(a) = q.from.alias.take() {
            alias_map.push((a.to_ascii_lowercase(), q.from.name.clone()));
        }
        for j in &mut q.joins {
            if let Some(a) = j.table.alias.take() {
                alias_map.push((a.to_ascii_lowercase(), j.table.name.clone()));
            }
        }
        q.visit_columns_mut(&mut |c: &mut ColumnRef| {
            if let Some(qual) = &c.qualifier {
                let lower = qual.to_ascii_lowercase();
                if let Some((_, t)) = alias_map.iter().find(|(a, _)| *a == lower) {
                    c.qualifier = Some(t.clone());
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(answer: &str) -> String {
        answer
            .lines()
            .find_map(|l| l.trim().strip_prefix("# ").map(str::to_string))
            .unwrap()
    }

    #[test]
    fn null_style_follows_reference_majority() {
        let refs = vec![
            "Visualize BAR SELECT a , b FROM t WHERE c != \"null\"".to_string(),
            "Visualize BAR SELECT a , b FROM t WHERE d != \"null\"".to_string(),
        ];
        let out = retune_dvq(
            &refs,
            "Visualize BAR SELECT a , b FROM t WHERE c IS NOT NULL",
            1.0,
            1,
            None,
        );
        assert!(extract(&out).contains("c != \"null\""), "{out}");
    }

    #[test]
    fn column_names_are_never_modified() {
        let refs = vec!["Visualize BAR SELECT x , y FROM t WHERE z != 1".to_string()];
        let out = extract(&retune_dvq(
            &refs,
            "Visualize BAR SELECT weird_col , other_col FROM strange_table WHERE third_col <> 4",
            1.0,
            1,
            None,
        ));
        assert!(out.contains("weird_col"));
        assert!(out.contains("other_col"));
        assert!(out.contains("third_col != 4"));
    }

    #[test]
    fn zero_fidelity_returns_original() {
        let refs = vec!["Visualize BAR SELECT a , b FROM t WHERE c != \"null\"".to_string()];
        let original = "Visualize BAR SELECT a , b FROM t WHERE c IS NOT NULL";
        let out = retune_dvq(&refs, original, 0.0, 1, None);
        assert_eq!(extract(&out), original);
    }

    #[test]
    fn implicit_asc_majority_strips_keyword() {
        let refs = vec![
            "Visualize BAR SELECT a , b FROM t ORDER BY a".to_string(),
            "Visualize BAR SELECT a , b FROM t ORDER BY b".to_string(),
        ];
        let out = extract(&retune_dvq(
            &refs,
            "Visualize BAR SELECT a , b FROM t ORDER BY a ASC",
            1.0,
            1,
            None,
        ));
        assert!(out.ends_with("ORDER BY a"), "{out}");
    }

    #[test]
    fn alias_style_is_adopted() {
        let refs =
            vec!["Visualize BAR SELECT x , y FROM m AS T1 JOIN n AS T2 ON T1.k = T2.k".to_string()];
        let out = extract(&retune_dvq(
            &refs,
            "Visualize BAR SELECT x , y FROM emp JOIN dept ON emp.k = dept.k WHERE dept.name = 'A'",
            1.0,
            1,
            None,
        ));
        assert!(
            out.contains("FROM emp AS T1 JOIN dept AS T2 ON T1.k = T2.k"),
            "{out}"
        );
        assert!(out.contains("T2.name = 'A'"), "{out}");
    }

    #[test]
    fn alias_removal_requalifies() {
        let mut q = t2v_dvq::parse(
            "Visualize BAR SELECT x , y FROM emp AS T1 JOIN dept AS T2 ON T1.k = T2.k WHERE T2.name = 'A'",
        )
        .unwrap();
        set_alias_usage(&mut q, false);
        let s = Printer::default().print(&q);
        assert!(s.contains("FROM emp JOIN dept ON emp.k = dept.k"), "{s}");
        assert!(s.contains("dept.name = 'A'"), "{s}");
    }

    #[test]
    fn unparseable_original_is_passed_through() {
        let out = retune_dvq::<&str>(&[], "not a dvq at all", 1.0, 1, None);
        assert!(out.contains("not a dvq at all"));
    }
}
