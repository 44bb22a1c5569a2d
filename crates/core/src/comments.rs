//! Comment-endpoint consistency: Table 5 (Appendix B.2).
//!
//! Compares the comment sets fetched at the first and last snapshots, for
//! top-level (TL) and nested (N) comments, both across each snapshot's
//! full video set (NS — differences here are inherited from the *search*
//! endpoint's video churn) and across videos shared by both snapshots
//! (S — differences here would indict the comment endpoints themselves;
//! the paper finds none). Comments are restricted to those posted within
//! three weeks of the topic's focal date.

use crate::dataset::{put_comment, read_comment, CommentFetchError, CommentsSnapshot};
use crate::idsets::{decode_id_set, encode_id_set};
use std::collections::HashSet;
use std::sync::Arc;
use ytaudit_stats::sets::{jaccard_of_counts, sorted_intersection_len};
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{Timestamp, Topic, VideoId};

/// A Table 5 row. `None` entries are the paper's "N/A" (no nested
/// comments exist — Higgs predates threaded replies).
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// The topic.
    pub topic: Topic,
    /// Top-level comments, full (non-shared) video sets.
    pub top_level_non_shared: Option<f64>,
    /// Nested comments, full video sets.
    pub nested_non_shared: Option<f64>,
    /// Top-level comments, shared videos only.
    pub top_level_shared: Option<f64>,
    /// Nested comments, shared videos only.
    pub nested_shared: Option<f64>,
}

/// One snapshot's comment IDs posted by the cutoff, borrowed from its
/// collection, each list ascending and duplicate-free: top-level and
/// nested, over every video and over the videos both compared snapshots
/// returned.
#[derive(Default)]
struct CommentSets<'a> {
    top_level: Vec<&'a str>,
    nested: Vec<&'a str>,
    top_level_shared: Vec<&'a str>,
    nested_shared: Vec<&'a str>,
}

/// Sorts `snapshot`'s comments posted by `cutoff` into [`CommentSets`] in
/// one pass; `shared` says whether a video belongs to the shared sets.
/// A crawl lists each video's comments together, so the answer for the
/// previous video is reused.
fn comment_sets(
    snapshot: &CommentsSnapshot,
    cutoff: Timestamp,
    shared: impl Fn(&VideoId) -> bool,
) -> CommentSets<'_> {
    let mut sets = CommentSets::default();
    let mut last_video: Option<(&VideoId, bool)> = None;
    for record in snapshot
        .comments
        .iter()
        .filter(|r| r.published_at <= cutoff)
    {
        let on_shared = match last_video {
            Some((video, on_shared)) if *video == record.video_id => on_shared,
            _ => {
                let on_shared = shared(&record.video_id);
                last_video = Some((&record.video_id, on_shared));
                on_shared
            }
        };
        let (all, only_shared) = if record.is_reply {
            (&mut sets.nested, &mut sets.nested_shared)
        } else {
            (&mut sets.top_level, &mut sets.top_level_shared)
        };
        all.push(record.id.as_str());
        if on_shared {
            only_shared.push(record.id.as_str());
        }
    }
    for ids in [
        &mut sets.top_level,
        &mut sets.nested,
        &mut sets.top_level_shared,
        &mut sets.nested_shared,
    ] {
        ids.sort_unstable();
        ids.dedup();
    }
    sets
}

fn maybe_jaccard(a: &[&str], b: &[&str]) -> Option<f64> {
    if a.is_empty() && b.is_empty() {
        None // the paper's N/A
    } else {
        Some(jaccard_of_counts(
            a.len(),
            b.len(),
            sorted_intersection_len(a, b),
        ))
    }
}

/// One snapshot's comment collection (if any) and returned video-ID set
/// (shared with the analyzer's other accumulators).
type Collection = (Option<CommentsSnapshot>, Arc<HashSet<VideoId>>);

/// Streaming Table-5 accumulator for one topic. Table 5 only compares
/// the first and last snapshots, so the state is exactly those two
/// snapshots' comment collections and video-ID sets; everything in
/// between folds through without being retained.
#[derive(Debug, Clone)]
pub struct Table5Accumulator {
    topic: Topic,
    first: Option<Arc<Collection>>,
    last: Option<Arc<Collection>>,
}

impl Table5Accumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> Table5Accumulator {
        Table5Accumulator {
            topic,
            first: None,
            last: None,
        }
    }

    /// Folds the next snapshot's comment collection (if any) and
    /// returned video-ID set, keeping both without copying them.
    pub fn fold(
        &mut self,
        comments: Option<CommentsSnapshot>,
        id_set: impl Into<Arc<HashSet<VideoId>>>,
    ) {
        let entry = Arc::new((comments, id_set.into()));
        if self.first.is_none() {
            self.first = Some(Arc::clone(&entry));
        }
        self.last = Some(entry);
    }

    /// Finalizes into a [`Table5Row`], or `None` if comments were not
    /// collected at both the first and last folded snapshots.
    pub fn finish(&self) -> Option<Table5Row> {
        let (first_comments, first_videos) = self.first.as_deref()?;
        let (last_comments, last_videos) = self.last.as_deref()?;
        let first_comments = first_comments.as_ref()?;
        let last_comments = last_comments.as_ref()?;
        // D-day + 3 weeks cutoff (one week past the video-window end).
        let cutoff = self.topic.spec().focal_date.add_days(21);
        let shared = |video: &VideoId| first_videos.contains(video) && last_videos.contains(video);
        let first = comment_sets(first_comments, cutoff, shared);
        let last = comment_sets(last_comments, cutoff, shared);
        Some(Table5Row {
            topic: self.topic,
            top_level_non_shared: maybe_jaccard(&first.top_level, &last.top_level),
            nested_non_shared: maybe_jaccard(&first.nested, &last.nested),
            top_level_shared: maybe_jaccard(&first.top_level_shared, &last.top_level_shared),
            nested_shared: maybe_jaccard(&first.nested_shared, &last.nested_shared),
        })
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        for slot in [&self.first, &self.last] {
            w.put_option(slot.as_deref(), |w, (comments, videos)| {
                w.put_option(comments.as_ref(), encode_comments_snapshot);
                encode_id_set(w, videos.iter());
            });
        }
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<Table5Accumulator> {
        let mut slot = || {
            r.option(|r| {
                let comments = r.option(decode_comments_snapshot)?;
                Ok(Arc::new((comments, Arc::new(decode_id_set(r)?))))
            })
        };
        Ok(Table5Accumulator {
            topic,
            first: slot()?,
            last: slot()?,
        })
    }
}

fn encode_comments_snapshot(w: &mut Writer, cs: &CommentsSnapshot) {
    w.put_list(&cs.comments, put_comment);
    w.put_list(&cs.fetch_errors, |w, e| {
        w.put_str(e.video_id.as_str());
        w.put_str(&e.error);
    });
}

fn decode_comments_snapshot(r: &mut Reader<'_>) -> wire::Result<CommentsSnapshot> {
    Ok(CommentsSnapshot {
        comments: r.list(read_comment)?,
        fetch_errors: r.list(|r| {
            Ok(CommentFetchError {
                video_id: VideoId::new(r.str()?),
                error: r.str()?.to_string(),
            })
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::dataset::AuditDataset;
    use crate::testutil::test_client;
    use crate::Analyzer;

    /// One topic's Table-5 row from the dataset's report.
    fn table5_row(dataset: &AuditDataset, topic: Topic) -> Option<Table5Row> {
        let report = Analyzer::analyze_dataset(dataset);
        report.table5.into_iter().find(|r| r.topic == topic)
    }

    fn dataset_with_comments(topics: Vec<Topic>) -> AuditDataset {
        let (client, _service) = test_client(0.12);
        let mut config = CollectorConfig::quick(topics, 3);
        config.fetch_comments = true;
        config.fetch_metadata = false;
        config.fetch_channels = false;
        Collector::new(&client, config).run().unwrap()
    }

    #[test]
    fn shared_video_comments_are_nearly_identical() {
        let dataset = dataset_with_comments(vec![Topic::Brexit]);
        let row = table5_row(&dataset, Topic::Brexit).expect("comments collected");
        // The comment endpoints are stable: on shared videos the first and
        // last fetches agree almost exactly (paper: ≥ .97).
        let tl_s = row.top_level_shared.expect("brexit has top-level comments");
        assert!(tl_s > 0.95, "TL,S = {tl_s}");
        if let Some(n_s) = row.nested_shared {
            assert!(n_s > 0.95, "N,S = {n_s}");
        }
        // Full-set comparisons inherit the search endpoint's video churn,
        // so they sit at or below the shared-video similarity.
        let tl_ns = row.top_level_non_shared.expect("non-shared TL");
        assert!(tl_ns <= tl_s + 1e-9, "TL,NS {tl_ns} vs TL,S {tl_s}");
    }

    #[test]
    fn higgs_nested_is_na() {
        let dataset = dataset_with_comments(vec![Topic::Higgs]);
        let row = table5_row(&dataset, Topic::Higgs).expect("comments collected");
        assert!(row.nested_non_shared.is_none(), "Higgs nested must be N/A");
        assert!(row.nested_shared.is_none());
        assert!(row.top_level_non_shared.is_some());
    }

    #[test]
    fn missing_comment_collections_yield_none() {
        let (client, _service) = test_client(0.05);
        let config = CollectorConfig {
            fetch_comments: false,
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Higgs], 2)
        };
        let dataset = Collector::new(&client, config).run().unwrap();
        assert!(table5_row(&dataset, Topic::Higgs).is_none());
        assert!(Analyzer::analyze_dataset(&dataset).table5.is_empty());
    }
}
