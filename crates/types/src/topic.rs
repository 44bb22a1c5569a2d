//! The six audit topics from the paper's Appendix A, with the generation
//! parameters the synthetic platform needs to reproduce each topic's
//! observed behaviour.
//!
//! Every topic fixes a *focal date* (the event's D-day); the audit collects
//! videos published between 14 days before and 14 days after it. The
//! remaining fields calibrate the synthetic corpus to the paper's Tables 1
//! and 4: how many videos match the query platform-wide (`pool_size`,
//! driving `pageInfo.totalResults` and the consistency of returns), how the
//! topical interest is spread over the 28-day window, and which subtopic
//! vocabulary exists for the §6.1 query-splitting strategy experiment.

use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The six topics audited in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Topic {
    /// Black Lives Matter; focal date = killing of George Floyd
    /// (2020-05-25). The topical peak lags the focal date (Blackout
    /// Tuesday), which Figure 2 highlights.
    Blm,
    /// Brexit; focal date = referendum day (2016-06-23).
    Brexit,
    /// US Capitol riots; focal date = the January 6th attack (2021-01-06).
    Capitol,
    /// Grammy Awards 2024; focal date = the ceremony (2024-02-04).
    Grammys,
    /// Higgs boson; focal date = the discovery announcement (2012-07-04).
    /// By far the smallest pool and the most consistent topic.
    Higgs,
    /// FIFA World Cup 2014; focal date = opening game (2014-06-12). An
    /// ongoing tournament, so interest stays high through the window.
    WorldCup,
}

impl Topic {
    /// All six topics in the paper's presentation order.
    pub const ALL: [Topic; 6] = [
        Topic::Blm,
        Topic::Brexit,
        Topic::Capitol,
        Topic::Grammys,
        Topic::Higgs,
        Topic::WorldCup,
    ];

    /// This topic's position in [`Topic::ALL`] — the canonical row index
    /// for per-topic tables. Infallible by construction, unlike searching
    /// `ALL` with `position()`.
    pub const fn index(self) -> usize {
        match self {
            Topic::Blm => 0,
            Topic::Brexit => 1,
            Topic::Capitol => 2,
            Topic::Grammys => 3,
            Topic::Higgs => 4,
            Topic::WorldCup => 5,
        }
    }

    /// The single-byte code stores and checkpoints record: this topic's
    /// [`Topic::index`]. `wire::topic_from_code` is the inverse.
    pub const fn code(self) -> u8 {
        self.index() as u8
    }

    /// Short machine key (used in file names and regression dummies).
    pub fn key(self) -> &'static str {
        match self {
            Topic::Blm => "blm",
            Topic::Brexit => "brexit",
            Topic::Capitol => "capriot",
            Topic::Grammys => "grammys",
            Topic::Higgs => "higgs",
            Topic::WorldCup => "worldcup",
        }
    }

    /// Human-readable name as the paper's tables print it.
    pub fn display_name(self) -> &'static str {
        match self {
            Topic::Blm => "BLM",
            Topic::Brexit => "Brexit",
            Topic::Capitol => "Capitol",
            Topic::Grammys => "Grammys",
            Topic::Higgs => "Higgs",
            Topic::WorldCup => "World Cup",
        }
    }

    /// The full generation/audit specification for this topic.
    pub fn spec(self) -> TopicSpec {
        match self {
            Topic::Blm => TopicSpec {
                topic: self,
                query: "black lives matter",
                focal_date: ymd(2020, 5, 25),
                // Table 4: mean pool 982k, mode at the 1M cap.
                pool_size: 1_070_000,
                // Table 1: mean 743.44 videos returned per collection.
                returned_target: 743.0,
                // Interest peaks ~8 days *after* the focal date (Blackout
                // Tuesday, 2020-06-02) and stays elevated.
                peak_offset_days: 8.0,
                peak_width_days: 3.5,
                background_level: 0.30,
                stability: 0.36,
                subtopics: &[
                    "george floyd",
                    "protest",
                    "blackout tuesday",
                    "minneapolis",
                    "police",
                    "justice",
                ],
                nested_comments: true,
            },
            Topic::Brexit => TopicSpec {
                topic: self,
                query: "brexit referendum",
                focal_date: ymd(2016, 6, 23),
                // Table 4: mean 624k, mode 613k (below the cap).
                pool_size: 625_000,
                returned_target: 560.0,
                peak_offset_days: 1.0,
                peak_width_days: 2.0,
                background_level: 0.22,
                stability: 0.62,
                subtopics: &["leave", "remain", "eu", "cameron", "farage", "article 50"],
                nested_comments: true,
            },
            Topic::Capitol => TopicSpec {
                topic: self,
                query: "us capitol",
                focal_date: ymd(2021, 1, 6),
                // Table 4: mean 966k, mode 1M.
                pool_size: 1_050_000,
                returned_target: 572.0,
                peak_offset_days: 0.3,
                peak_width_days: 1.2,
                background_level: 0.12,
                stability: 0.40,
                subtopics: &[
                    "january 6",
                    "riot",
                    "congress",
                    "electoral college",
                    "impeachment",
                    "trump",
                ],
                nested_comments: true,
            },
            Topic::Grammys => TopicSpec {
                topic: self,
                query: "grammy awards",
                focal_date: ymd(2024, 2, 4),
                // Table 4: mean 150k, mode 123k.
                pool_size: 152_000,
                returned_target: 659.0,
                peak_offset_days: 0.2,
                peak_width_days: 1.0,
                background_level: 0.15,
                stability: 0.44,
                subtopics: &[
                    "red carpet",
                    "performance",
                    "album of the year",
                    "taylor swift",
                    "nominees",
                    "acceptance speech",
                ],
                nested_comments: true,
            },
            Topic::Higgs => TopicSpec {
                topic: self,
                query: "higgs boson",
                focal_date: ymd(2012, 7, 4),
                // Table 4: mean 40.2k, max 65.2k — orders of magnitude
                // smaller than the political topics.
                pool_size: 41_000,
                returned_target: 507.0,
                peak_offset_days: 0.5,
                peak_width_days: 1.5,
                background_level: 0.25,
                stability: 0.95,
                subtopics: &[
                    "cern",
                    "lhc",
                    "god particle",
                    "particle physics",
                    "standard model",
                    "atlas",
                ],
                // The 2012 comment-reply affordance predates threaded
                // replies; Table 5 reports N/A for nested Higgs comments.
                nested_comments: false,
            },
            Topic::WorldCup => TopicSpec {
                topic: self,
                query: "fifa world cup",
                focal_date: ymd(2014, 6, 12),
                // Table 4: mean 998k, mode 1M.
                pool_size: 1_080_000,
                returned_target: 502.0,
                // A month-long tournament: interest is high throughout the
                // window, so the density peak is broad and the background
                // strong — peaks sit at lower absolute values (Figure 2).
                peak_offset_days: 3.0,
                peak_width_days: 9.0,
                background_level: 0.55,
                stability: 0.37,
                subtopics: &[
                    "brazil",
                    "germany",
                    "messi",
                    "neymar",
                    "group stage",
                    "goal",
                ],
                nested_comments: true,
            },
        }
    }

    /// `publishedAfter` for the audit window: focal date − 14 days.
    pub fn window_start(self) -> Timestamp {
        self.spec().focal_date.add_days(-14)
    }

    /// `publishedBefore` for the audit window: focal date + 14 days.
    pub fn window_end(self) -> Timestamp {
        self.spec().focal_date.add_days(14)
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

const fn ymd(y: i32, m: u32, d: u32) -> Timestamp {
    // All paper focal dates are literals; `from_ymd_const` turns an
    // invalid one into a compile error, so no runtime panic path exists.
    Timestamp::from_ymd_const(y, m, d)
}

/// Generation and audit parameters for one topic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopicSpec {
    /// The topic this spec describes.
    pub topic: Topic,
    /// The exact `q` parameter from the paper's Appendix A.
    pub query: &'static str,
    /// The event's D-day at midnight UTC.
    pub focal_date: Timestamp,
    /// Platform-wide number of videos matching the query (drives
    /// `pageInfo.totalResults` and randomization intensity).
    pub pool_size: u64,
    /// Calibrated mean number of videos a full 28-day hourly collection
    /// returns (Table 1).
    pub returned_target: f64,
    /// Days between the focal date and the interest peak (positive = peak
    /// after D-day).
    pub peak_offset_days: f64,
    /// Standard deviation of the interest burst, in days.
    pub peak_width_days: f64,
    /// Relative background interest level outside the burst, in (0, 1].
    /// High values (World Cup) flatten the density; low values (Capitol)
    /// concentrate returns at the spike.
    pub background_level: f64,
    /// How deterministic the search sampler is for this topic, in (0, 1]:
    /// the weight of the *static* per-video component of the sampling
    /// score. High stability (Higgs) keeps snapshots nearly identical; low
    /// stability (BLM) lets the rolling-window noise churn the returned
    /// set. Calibrated to reproduce Figure 1's per-topic ordering.
    pub stability: f64,
    /// Subtopic phrases usable as additional AND terms (§6.1 strategy
    /// experiment). Each phrase tokenizes into extra searchable terms.
    pub subtopics: &'static [&'static str],
    /// Whether the platform generates nested replies for this topic's
    /// comments (false only for Higgs/2012).
    pub nested_comments: bool,
}

impl TopicSpec {
    /// Tokenizes this topic's query the way the search endpoint does:
    /// lowercase, split on whitespace.
    pub fn query_tokens(&self) -> Vec<String> {
        tokenize(self.query)
    }
}

/// Lowercases and splits a query string into match tokens. Shared by the
/// platform's indexer and the API's query parser so both sides agree.
pub fn tokenize(query: &str) -> Vec<String> {
    query
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .filter(|t| !t.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_topics_with_distinct_keys() {
        let keys: std::collections::HashSet<_> = Topic::ALL.iter().map(|t| t.key()).collect();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn index_matches_all_order() {
        for (i, topic) in Topic::ALL.iter().enumerate() {
            assert_eq!(topic.index(), i, "{topic}");
        }
    }

    #[test]
    fn focal_dates_match_appendix_a() {
        assert_eq!(
            Topic::Blm.spec().focal_date.to_rfc3339(),
            "2020-05-25T00:00:00Z"
        );
        assert_eq!(
            Topic::Brexit.spec().focal_date.to_rfc3339(),
            "2016-06-23T00:00:00Z"
        );
        assert_eq!(
            Topic::Capitol.spec().focal_date.to_rfc3339(),
            "2021-01-06T00:00:00Z"
        );
        assert_eq!(
            Topic::Grammys.spec().focal_date.to_rfc3339(),
            "2024-02-04T00:00:00Z"
        );
        assert_eq!(
            Topic::Higgs.spec().focal_date.to_rfc3339(),
            "2012-07-04T00:00:00Z"
        );
        assert_eq!(
            Topic::WorldCup.spec().focal_date.to_rfc3339(),
            "2014-06-12T00:00:00Z"
        );
    }

    #[test]
    fn windows_span_28_days() {
        for topic in Topic::ALL {
            let start = topic.window_start();
            let end = topic.window_end();
            assert_eq!(end.days_since(start), 28, "{topic}");
            assert_eq!(end.hours_since(start), 672, "{topic}");
        }
    }

    #[test]
    fn pool_ordering_matches_table_4() {
        // Higgs ≪ Grammys ≪ Brexit < the 1M-capped trio.
        let pool = |t: Topic| t.spec().pool_size;
        assert!(pool(Topic::Higgs) < pool(Topic::Grammys));
        assert!(pool(Topic::Grammys) < pool(Topic::Brexit));
        assert!(pool(Topic::Brexit) < pool(Topic::Capitol));
        assert!(pool(Topic::Capitol) <= pool(Topic::WorldCup));
    }

    #[test]
    fn queries_match_appendix_a() {
        assert_eq!(Topic::Blm.spec().query, "black lives matter");
        assert_eq!(Topic::Higgs.spec().query, "higgs boson");
        assert_eq!(Topic::WorldCup.spec().query, "fifa world cup");
    }

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(tokenize("FIFA World  Cup"), vec!["fifa", "world", "cup"]);
        assert_eq!(tokenize("  higgs   BOSON "), vec!["higgs", "boson"]);
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn only_higgs_lacks_nested_comments() {
        for topic in Topic::ALL {
            assert_eq!(
                topic.spec().nested_comments,
                topic != Topic::Higgs,
                "{topic}"
            );
        }
    }

    #[test]
    fn stability_ordering_matches_figure_1() {
        // Higgs is by far the most consistent; Brexit clearly second.
        let st = |t: Topic| t.spec().stability;
        assert!(st(Topic::Higgs) > st(Topic::Brexit));
        assert!(st(Topic::Brexit) > st(Topic::Grammys));
        for t in Topic::ALL {
            assert!(st(t) > 0.0 && st(t) <= 1.0, "{t}");
        }
    }

    #[test]
    fn every_topic_has_subtopics_for_strategy_experiment() {
        for topic in Topic::ALL {
            assert!(topic.spec().subtopics.len() >= 4, "{topic}");
        }
    }
}
