//! Inference of a [`printer::StyleProfile`](crate::printer::StyleProfile) from
//! observed DVQs.
//!
//! GRED's DVQ-Retrieval Retuner retrieves the top-K most similar training
//! DVQs and asks the LLM to "mimic their style". The simulated LLM implements
//! that by inferring the dominant style of the references with this module
//! and re-printing the candidate under it.

use crate::ast::{Dvq, NullStyle};
use crate::components::StyleKey;
use crate::printer::StyleProfile;

/// Majority-vote accumulator over the style-bearing facts of many queries.
#[derive(Debug, Clone, Default)]
pub struct StyleVote {
    is_null: usize,
    compare_string: usize,
    bang: usize,
    angle: usize,
    explicit_dir: usize,
    implicit_dir: usize,
    samples: usize,
}

impl StyleVote {
    /// Fold one query into the vote.
    pub fn observe(&mut self, q: &Dvq) {
        let key = StyleKey::of(q);
        for s in &key.null_styles {
            match s {
                NullStyle::IsNull => self.is_null += 1,
                NullStyle::CompareString => self.compare_string += 1,
            }
        }
        for b in &key.noteq_bangs {
            if *b {
                self.bang += 1;
            } else {
                self.angle += 1;
            }
        }
        match key.explicit_dir {
            Some(true) => self.explicit_dir += 1,
            Some(false) => self.implicit_dir += 1,
            None => {}
        }
        self.samples += 1;
    }

    /// Fold another vote into this one. Every count is additive, so folding
    /// per-query votes gives the counts of observing those queries here, in
    /// any order.
    pub fn merge(&mut self, other: &StyleVote) {
        self.is_null += other.is_null;
        self.compare_string += other.compare_string;
        self.bang += other.bang;
        self.angle += other.angle;
        self.explicit_dir += other.explicit_dir;
        self.implicit_dir += other.implicit_dir;
        self.samples += other.samples;
    }

    /// Whether more of the observed ORDER BYs leave the direction implicit
    /// than write it.
    pub fn implicit_dir_majority(&self) -> bool {
        self.implicit_dir > self.explicit_dir
    }

    /// Number of queries observed.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The majority style. Axes with no evidence stay `None` (keep as-is).
    pub fn profile(&self) -> StyleProfile {
        StyleProfile {
            null_style: if self.is_null + self.compare_string == 0 {
                None
            } else if self.compare_string >= self.is_null {
                Some(NullStyle::CompareString)
            } else {
                Some(NullStyle::IsNull)
            },
            noteq_bang: if self.bang + self.angle == 0 {
                None
            } else {
                Some(self.bang >= self.angle)
            },
            explicit_asc: self.explicit_dir > self.implicit_dir,
        }
    }
}

/// Infer the dominant style of a set of reference queries.
pub fn infer_profile<'a>(refs: impl IntoIterator<Item = &'a Dvq>) -> StyleProfile {
    let mut vote = StyleVote::default();
    for q in refs {
        vote.observe(q);
    }
    vote.profile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::printer::Printer;

    #[test]
    fn majority_null_style_wins() {
        let refs: Vec<Dvq> = [
            "Visualize BAR SELECT a , b FROM t WHERE c != \"null\"",
            "Visualize BAR SELECT a , b FROM t WHERE d != \"null\"",
            "Visualize BAR SELECT a , b FROM t WHERE e IS NOT NULL",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let profile = infer_profile(&refs);
        assert_eq!(profile.null_style, Some(NullStyle::CompareString));
    }

    #[test]
    fn no_evidence_means_keep() {
        let refs: Vec<Dvq> = ["Visualize BAR SELECT a , b FROM t"]
            .iter()
            .map(|s| parse(s).unwrap())
            .collect();
        let profile = infer_profile(&refs);
        assert_eq!(profile.null_style, None);
        assert_eq!(profile.noteq_bang, None);
    }

    #[test]
    fn inferred_profile_restyles_candidate() {
        let refs: Vec<Dvq> = [
            "Visualize BAR SELECT a , b FROM t WHERE c != \"null\" AND d != 1",
            "Visualize BAR SELECT a , b FROM t WHERE e != 2",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let profile = infer_profile(&refs);
        let candidate =
            parse("Visualize BAR SELECT a , b FROM t WHERE c IS NOT NULL AND d <> 1").unwrap();
        let restyled = Printer::new(profile).print(&candidate);
        assert_eq!(
            restyled,
            "Visualize BAR SELECT a , b FROM t WHERE c != \"null\" AND d != 1"
        );
    }

    #[test]
    fn merged_votes_equal_one_vote_over_all() {
        let refs: Vec<Dvq> = [
            "Visualize BAR SELECT a , b FROM t WHERE c != \"null\" AND d <> 1 ORDER BY a",
            "Visualize BAR SELECT a , b FROM t WHERE e IS NOT NULL ORDER BY b DESC",
            "Visualize BAR SELECT a , b FROM t WHERE f != 2 ORDER BY a ASC",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let mut merged = StyleVote::default();
        for q in refs.iter().rev() {
            let mut one = StyleVote::default();
            one.observe(q);
            merged.merge(&one);
        }
        assert_eq!(merged.samples(), 3);
        assert_eq!(merged.profile(), infer_profile(&refs));
    }

    #[test]
    fn explicit_direction_majority() {
        let refs: Vec<Dvq> = [
            "Visualize BAR SELECT a , b FROM t ORDER BY a ASC",
            "Visualize BAR SELECT a , b FROM t ORDER BY b DESC",
            "Visualize BAR SELECT a , b FROM t ORDER BY a",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        assert!(infer_profile(&refs).explicit_asc);
    }
}
