//! Return-likelihood regressions: Tables 3, 6, and 7.
//!
//! Dependent variable: the number of snapshots each video appeared in
//! (1–16 in the paper). Predictors, in the paper's order: an SD-quality
//! dummy (vs HD), topic dummies (vs BLM), and log-transformed,
//! z-standardized continuous features — video duration, views, likes,
//! comments, channel age, channel views, channel subscribers, and the
//! channel's upload count.

use crate::dataset::{put_video_info, read_video_info, ChannelInfo, VideoInfo};
use std::collections::{BTreeMap, HashSet};
use ytaudit_stats::descriptive::{bin_frequency, log1p_transform, standardize};
use ytaudit_stats::ols::{OlsFit, OlsOptions};
use ytaudit_stats::ordinal::{OrdinalFit, OrdinalModel};
use ytaudit_stats::{Result as StatsResult, StatsError};
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{ChannelId, Timestamp, Topic, VideoId};

/// The paper's predictor names, in Table 3's order.
pub const PREDICTORS: [&str; 14] = [
    "SD (quality)",
    "brexit (topic)",
    "capriot (topic)",
    "grammys (topic)",
    "higgs (topic)",
    "worldcup (topic)",
    "duration",
    "views",
    "likes",
    "comments",
    "channel age",
    "channel views",
    "channel subs",
    "# channel videos",
];

/// The assembled design matrix plus outcome.
#[derive(Debug, Clone)]
pub struct RegressionData {
    /// Predictor names actually present (columns of `x`). Constant
    /// columns — e.g. the dummy of a topic not in the collection — are
    /// dropped, so reduced collections still fit.
    pub names: Vec<String>,
    /// Standardized predictor rows, columns aligned with `names`.
    pub x: Vec<Vec<f64>>,
    /// Appearance frequency per video (1..=n_snapshots).
    pub frequency: Vec<u32>,
    /// Number of snapshots in the collection.
    pub n_snapshots: usize,
}

/// Builds the design matrix from per-topic appearance frequencies and
/// the two metadata maps. Frequencies iterate in ascending video-ID order
/// per topic, so the row order — and thus the last bits of the
/// standardized columns — is deterministic. Videos without fetched
/// metadata (or whose channel metadata is missing) are dropped — the
/// same listwise deletion a real pipeline performs.
fn regression_data_from(
    topic_frequencies: &[(Topic, &BTreeMap<VideoId, u32>)],
    n_snapshots: usize,
    reference_date: Timestamp,
    video_meta: &BTreeMap<VideoId, VideoInfo>,
    channel_meta: &BTreeMap<ChannelId, ChannelInfo>,
) -> StatsResult<RegressionData> {
    let mut sd = Vec::new();
    let mut topic_dummies: Vec<[f64; 5]> = Vec::new();
    let mut duration = Vec::new();
    let mut views = Vec::new();
    let mut likes = Vec::new();
    let mut comments = Vec::new();
    let mut channel_age = Vec::new();
    let mut channel_views = Vec::new();
    let mut channel_subs = Vec::new();
    let mut channel_videos = Vec::new();
    let mut frequency = Vec::new();

    for (topic, freqs) in topic_frequencies {
        let dummies = topic_dummy(*topic);
        for (video_id, &freq) in freqs.iter() {
            let Some(video) = video_meta.get(video_id) else {
                continue;
            };
            let Some(channel) = channel_meta.get(&video.channel_id) else {
                continue;
            };
            sd.push(if video.is_sd { 1.0 } else { 0.0 });
            topic_dummies.push(dummies);
            duration.push(video.duration_secs as f64);
            views.push(video.views as f64);
            likes.push(video.likes as f64);
            comments.push(video.comments as f64);
            channel_age.push(reference_date.days_since(channel.published_at).max(0) as f64);
            channel_views.push(channel.views as f64);
            channel_subs.push(channel.subscribers as f64);
            channel_videos.push(channel.video_count as f64);
            frequency.push(freq);
        }
    }
    if frequency.len() < 30 {
        return Err(StatsError::InvalidInput(format!(
            "too few observations with metadata ({})",
            frequency.len()
        )));
    }
    // Log-transform then standardize every continuous column.
    let z = |v: &[f64]| standardize(&log1p_transform(v));
    let zd = z(&duration);
    let zv = z(&views);
    let zl = z(&likes);
    let zc = z(&comments);
    let za = z(&channel_age);
    let zcv = z(&channel_views);
    let zcs = z(&channel_subs);
    let zcn = z(&channel_videos);
    let full: Vec<Vec<f64>> = (0..frequency.len())
        .map(|i| {
            let mut row = Vec::with_capacity(14);
            row.push(sd[i]);
            row.extend_from_slice(&topic_dummies[i]);
            row.push(zd[i]);
            row.push(zv[i]);
            row.push(zl[i]);
            row.push(zc[i]);
            row.push(za[i]);
            row.push(zcv[i]);
            row.push(zcs[i]);
            row.push(zcn[i]);
            row
        })
        .collect();
    // Drop constant columns (absent topics' dummies, or a degenerate
    // feature) so the design matrix stays full-rank.
    let keep: Vec<usize> = (0..PREDICTORS.len())
        .filter(|&j| {
            full.first().is_some_and(|head| {
                let first = head[j];
                full.iter().any(|row| row[j] != first)
            })
        })
        .collect();
    let names: Vec<String> = keep.iter().map(|&j| PREDICTORS[j].to_string()).collect();
    let x: Vec<Vec<f64>> = full
        .into_iter()
        .map(|row| keep.iter().map(|&j| row[j]).collect())
        .collect();
    Ok(RegressionData {
        names,
        x,
        frequency,
        n_snapshots,
    })
}

/// Streaming regression accumulator: per-topic appearance counts, video
/// metadata merged first-wins in fold order (within one collection every
/// fetch of a video returns identical metadata, so this matches the
/// batch merge), and the latest folded date as the channel-age reference.
/// Channel metadata only exists once a collection finishes, so it is
/// supplied at [`RegressionAccumulator::finish`] time.
#[derive(Debug, Clone, Default)]
pub struct RegressionAccumulator {
    frequencies: BTreeMap<Topic, BTreeMap<VideoId, u32>>,
    video_meta: BTreeMap<VideoId, VideoInfo>,
    reference_date: Option<Timestamp>,
}

impl RegressionAccumulator {
    /// An empty accumulator.
    pub fn new() -> RegressionAccumulator {
        RegressionAccumulator::default()
    }

    /// Folds one committed (topic, snapshot) pair: the returned ID set,
    /// the snapshot date, and the video metadata fetched alongside it. An
    /// ID is copied only the first time the topic sees it, and a video's
    /// metadata is kept without copying.
    pub fn fold(
        &mut self,
        topic: Topic,
        id_set: &HashSet<VideoId>,
        date: Timestamp,
        videos: Vec<VideoInfo>,
    ) {
        let freqs = self.frequencies.entry(topic).or_default();
        for id in id_set {
            match freqs.get_mut(id) {
                Some(freq) => *freq += 1,
                None => {
                    freqs.insert(id.clone(), 1);
                }
            }
        }
        for video in videos {
            if !self.video_meta.contains_key(&video.id) {
                self.video_meta.insert(video.id.clone(), video);
            }
        }
        self.reference_date = Some(match self.reference_date {
            Some(d) if d.0 >= date.0 => d,
            _ => date,
        });
    }

    /// Each topic's per-video appearance counts folded so far.
    #[cfg(test)]
    pub(crate) fn frequencies(&self) -> &BTreeMap<Topic, BTreeMap<VideoId, u32>> {
        &self.frequencies
    }

    /// Seeds one video's metadata directly (first-wins, like the fold
    /// path) — used by the batch entry point, whose dataset carries a
    /// single merged metadata map.
    pub fn seed_video(&mut self, video: &VideoInfo) {
        self.video_meta
            .entry(video.id.clone())
            .or_insert_with(|| video.clone());
    }

    /// Finalizes into a [`RegressionData`]. `topics` fixes the topic
    /// iteration order (plan order) and `channel_meta` supplies the
    /// end-of-collection channel fetches.
    pub fn finish(
        &self,
        topics: &[Topic],
        n_snapshots: usize,
        channel_meta: &BTreeMap<ChannelId, ChannelInfo>,
    ) -> StatsResult<RegressionData> {
        let reference_date = self
            .reference_date
            .ok_or_else(|| StatsError::InvalidInput("empty dataset".into()))?;
        let empty = BTreeMap::new();
        let topic_frequencies: Vec<(Topic, &BTreeMap<VideoId, u32>)> = topics
            .iter()
            .map(|&t| (t, self.frequencies.get(&t).unwrap_or(&empty)))
            .collect();
        regression_data_from(
            &topic_frequencies,
            n_snapshots,
            reference_date,
            &self.video_meta,
            channel_meta,
        )
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_option(self.reference_date, |w, d| w.put_i64(d.0));
        w.put_list(&self.frequencies, |w, (topic, freqs)| {
            w.put_topic(*topic);
            w.put_list(freqs, |w, (id, &freq)| {
                w.put_str(id.as_str());
                w.put_u32(freq);
            });
        });
        w.put_list(self.video_meta.values(), put_video_info);
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(r: &mut Reader<'_>) -> wire::Result<RegressionAccumulator> {
        let reference_date = r.option(|r| r.i64().map(Timestamp))?;
        let frequencies = r.list(|r| {
            let topic = r.topic()?;
            let freqs = r.list(|r| Ok((VideoId::new(r.str()?), r.u32()?)))?;
            Ok((topic, freqs.into_iter().collect::<BTreeMap<_, _>>()))
        })?;
        let videos = r.list(read_video_info)?;
        Ok(RegressionAccumulator {
            frequencies: frequencies.into_iter().collect(),
            video_meta: videos.into_iter().map(|v| (v.id.clone(), v)).collect(),
            reference_date,
        })
    }
}

fn topic_dummy(topic: Topic) -> [f64; 5] {
    // One-hot over the non-reference topics; BLM is the reference
    // category.
    match topic {
        Topic::Blm => [0.0, 0.0, 0.0, 0.0, 0.0],
        Topic::Brexit => [1.0, 0.0, 0.0, 0.0, 0.0],
        Topic::Capitol => [0.0, 1.0, 0.0, 0.0, 0.0],
        Topic::Grammys => [0.0, 0.0, 1.0, 0.0, 0.0],
        Topic::Higgs => [0.0, 0.0, 0.0, 1.0, 0.0],
        Topic::WorldCup => [0.0, 0.0, 0.0, 0.0, 1.0],
    }
}

/// Compresses arbitrary category labels to contiguous 0-based indices in
/// ascending label order. Returns the compressed labels and the number of
/// categories.
fn compress_categories(labels: &[u32]) -> (Vec<usize>, usize) {
    let mut distinct: Vec<u32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let index: std::collections::HashMap<u32, usize> =
        distinct.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    (labels.iter().map(|l| index[l]).collect(), distinct.len())
}

/// Table 3: the binned ordinal (logit) regression. With 16 snapshots the
/// bins are the paper's 1–5 / 6–10 / 11–15 / 16; with fewer snapshots the
/// frequencies are scaled onto the same four bins before compression.
pub fn table3(data: &RegressionData) -> StatsResult<OrdinalFit> {
    let binned: Vec<u32> = data
        .frequency
        .iter()
        .map(|&f| {
            let scaled = if data.n_snapshots == 16 {
                f
            } else {
                // Scale onto 1..=16 so the paper's bin edges apply.
                ((f as f64 / data.n_snapshots as f64) * 16.0).ceil() as u32
            };
            u32::from(bin_frequency(scaled))
        })
        .collect();
    let (y, _) = compress_categories(&binned);
    let names: Vec<&str> = data.names.iter().map(String::as_str).collect();
    OrdinalModel::logit().fit(&names, &data.x, &y)
}

/// Table 6: OLS with HC1 robust standard errors, frequency continuous.
pub fn table6(data: &RegressionData) -> StatsResult<OlsFit> {
    let y: Vec<f64> = data.frequency.iter().map(|&f| f as f64).collect();
    let names: Vec<&str> = data.names.iter().map(String::as_str).collect();
    OlsFit::fit(&names, &data.x, &y, OlsOptions { robust_hc1: true })
}

/// Table 7: the non-binned ordinal regression with a complementary
/// log-log link (the outcome is skewed toward the top category).
pub fn table7(data: &RegressionData) -> StatsResult<OrdinalFit> {
    let (y, n_cat) = compress_categories(&data.frequency);
    if n_cat < 2 {
        return Err(StatsError::InvalidInput(
            "outcome has a single category".into(),
        ));
    }
    let names: Vec<&str> = data.names.iter().map(String::as_str).collect();
    OrdinalModel::cloglog().fit(&names, &data.x, &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::dataset::AuditDataset;
    use crate::testutil::test_client;
    use crate::Analyzer;

    /// The design matrix of a dataset, folded pair by pair the way
    /// [`Analyzer`] folds it.
    fn regression_data(dataset: &AuditDataset) -> StatsResult<RegressionData> {
        let mut acc = RegressionAccumulator::new();
        for snapshot in &dataset.snapshots {
            for topic in &dataset.topics {
                let ids = snapshot
                    .topics
                    .get(topic)
                    .map(|ts| ts.id_set())
                    .unwrap_or_default();
                acc.fold(*topic, &ids, snapshot.date, Vec::new());
            }
        }
        dataset.video_meta.values().for_each(|v| acc.seed_video(v));
        let channels = dataset.channel_meta.clone().into_iter().collect();
        acc.finish(&dataset.topics, dataset.len(), &channels)
    }

    fn dataset_with_meta() -> AuditDataset {
        let (client, _service) = test_client(0.35);
        let config = CollectorConfig::quick(
            vec![Topic::Blm, Topic::Brexit, Topic::Higgs, Topic::WorldCup],
            4,
        );
        Collector::new(&client, config).run().unwrap()
    }

    #[test]
    fn design_matrix_is_well_formed() {
        let dataset = dataset_with_meta();
        let data = regression_data(&dataset).unwrap();
        assert_eq!(data.x.len(), data.frequency.len());
        assert!(data.x.len() > 100);
        assert!(data.names.len() <= 14);
        // The collection includes 4 topics, so 3 non-reference dummies
        // survive the constant-column filter.
        assert!(data.names.iter().filter(|n| n.contains("(topic)")).count() == 3);
        for row in &data.x {
            assert_eq!(row.len(), data.names.len());
            // Standardized columns are finite.
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Frequencies within 1..=snapshots.
        assert!(data
            .frequency
            .iter()
            .all(|&f| f >= 1 && f as usize <= data.n_snapshots));
        // The Higgs dummy survives and is set for some rows.
        let higgs_col = data
            .names
            .iter()
            .position(|n| n == "higgs (topic)")
            .unwrap();
        assert!(data.x.iter().any(|r| r[higgs_col] == 1.0));
        assert!(data
            .x
            .iter()
            .all(|r| r[higgs_col] == 0.0 || r[higgs_col] == 1.0));
    }

    #[test]
    fn all_three_models_fit_and_agree_on_higgs() {
        let dataset = dataset_with_meta();
        let regression = Analyzer::analyze_dataset(&dataset).regression.unwrap();
        let t3 = regression.table3.unwrap();
        let t6 = regression.table6.unwrap();
        let t7 = regression.table7.unwrap();
        // The Higgs topic dummy is the paper's strongest effect: positive
        // and significant in every specification.
        for (name, coeff, p) in [
            (
                "t3",
                t3.coefficient("higgs (topic)").unwrap(),
                t3.p_value("higgs (topic)").unwrap(),
            ),
            (
                "t6",
                t6.coefficient("higgs (topic)").unwrap(),
                t6.p_value("higgs (topic)").unwrap(),
            ),
            (
                "t7",
                t7.coefficient("higgs (topic)").unwrap(),
                t7.p_value("higgs (topic)").unwrap(),
            ),
        ] {
            assert!(coeff > 0.0, "{name}: higgs coeff {coeff}");
            assert!(p < 0.05, "{name}: higgs p {p}");
        }
        // Model-level diagnostics.
        assert!(t3.lr_chi2 > 0.0);
        assert!(t3.lr_p < 0.001);
        assert!(t3.pseudo_r2 > 0.0 && t3.pseudo_r2 < 0.6);
        assert!(t6.r_squared > 0.0 && t6.r_squared < 0.9);
        assert!(t6.f_p_value < 0.001);
    }

    #[test]
    fn too_small_dataset_errors_cleanly() {
        let dataset = AuditDataset {
            topics: vec![Topic::Higgs],
            snapshots: Vec::new(),
            video_meta: Default::default(),
            channel_meta: Default::default(),
            quota_units_spent: 0,
        };
        assert!(Analyzer::analyze_dataset(&dataset).regression.is_err());
    }
}
