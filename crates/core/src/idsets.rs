//! Video-ID set kernels shared by the analyzer's accumulators: the
//! checkpoint codec of an ID set, and the per-hour and per-day ID lists
//! of a snapshot, built by sorting borrowed IDs rather than hashing
//! copies of them.

use crate::dataset::TopicSnapshot;
use std::collections::{BTreeMap, HashSet};
use ytaudit_stats::sets::{jaccard_of_counts, sorted_intersection_len};
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::VideoId;

/// Writes a video-ID set sorted and duplicate-free, so identical states
/// produce identical checkpoint bytes regardless of hash order.
pub(crate) fn encode_id_set<'a>(w: &mut Writer, set: impl IntoIterator<Item = &'a VideoId>) {
    let mut ids: Vec<&VideoId> = set.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    w.put_list(ids, |w, id| w.put_str(id.as_str()));
}

/// Reads a video-ID set written by [`encode_id_set`].
pub(crate) fn decode_id_set(r: &mut Reader<'_>) -> wire::Result<HashSet<VideoId>> {
    Ok(r.list(|r| r.str().map(VideoId::new))?.into_iter().collect())
}

/// A snapshot's video IDs per window hour, each list ascending and
/// duplicate-free: the per-hour sets of Table 2, with a repeated hour
/// entry replacing the earlier one (the batch grid's last-wins rule).
pub(crate) fn hour_sets(ts: &TopicSnapshot) -> BTreeMap<u32, Vec<&VideoId>> {
    let mut sets = BTreeMap::new();
    for hour in &ts.hours {
        sets.insert(hour.hour, hour.video_ids.iter().collect());
    }
    sets.values_mut().for_each(sort_dedup);
    sets
}

/// A snapshot's video IDs per window day (the union of its 24 hours),
/// each list ascending and duplicate-free: the per-day sets of Figure 2.
pub(crate) fn day_sets(ts: &TopicSnapshot) -> BTreeMap<u32, Vec<&VideoId>> {
    let mut sets: BTreeMap<u32, Vec<&VideoId>> = BTreeMap::new();
    for hour in &ts.hours {
        sets.entry(hour.hour / 24)
            .or_default()
            .extend(&hour.video_ids);
    }
    sets.values_mut().for_each(sort_dedup);
    sets
}

fn sort_dedup(ids: &mut Vec<&VideoId>) {
    ids.sort_unstable();
    ids.dedup();
}

/// Jaccard similarity of two ascending, duplicate-free ID lists.
pub(crate) fn sorted_jaccard(a: &[&VideoId], b: &[&VideoId]) -> f64 {
    jaccard_of_counts(a.len(), b.len(), sorted_intersection_len(a, b))
}

/// Property tests for the analyzer's set kernels: the count-only Figure-4
/// comparison, the regression's per-topic appearance counts, the sorted
/// per-hour and per-day sets behind Table 2 and Figure 2, and Table 5's
/// sorted comment-ID lists. Each is
/// checked against a naive reference that materializes every set as a
/// `HashSet<VideoId>`, the way the analyses were first written, on random
/// ID sets that include empty, disjoint and duplicate-laden ones. Results
/// must agree bit for bit, and so must the checkpoint bytes.
///
/// The cases come from `ytaudit_types::kit`, so `YTAUDIT_PROP_SEED`
/// rotates them per commit; a failure names the seed and case, and the
/// test's stderr the value to reproduce with.
#[cfg(test)]
mod tests {
    use super::encode_id_set;
    use crate::comments::{Table5Accumulator, Table5Row};
    use crate::dataset::{CommentRecord, CommentsSnapshot, HourlyResult, TopicSnapshot};
    use crate::idcheck::{Figure4Accumulator, Figure4Point};
    use crate::randomization::{Figure2Accumulator, Table2Accumulator};
    use crate::regression::RegressionAccumulator;
    use std::collections::{BTreeMap, HashSet};
    use std::sync::Arc;
    use ytaudit_stats::rank::spearman;
    use ytaudit_stats::sets::jaccard;
    use ytaudit_types::kit::{prop_seed, Rng};
    use ytaudit_types::wire::{self, Writer};
    use ytaudit_types::{Timestamp, Topic, VideoId};

    /// Random cases per property.
    const CASES: usize = 300;

    /// The suite's fixed seed; `YTAUDIT_PROP_SEED` rotates it.
    const SEED: u64 = 0x5E7_4E2E;

    /// A random ID set over a universe of up to `max_universe` IDs
    /// starting at `offset`: empty one time in six, otherwise of random
    /// density. Disjoint offsets give disjoint sets.
    fn ids(rng: &mut Rng, offset: u64, max_universe: u64) -> Vec<VideoId> {
        if rng.below(6) == 0 {
            return Vec::new();
        }
        let universe = 1 + rng.below(max_universe);
        let density = 1 + rng.below(4);
        (offset..offset + universe)
            .filter(|_| rng.below(4) < density)
            .map(|n| VideoId::new(format!("v{n:03}")))
            .collect()
    }

    /// A random snapshot: hours drawn from a small range, so hours repeat
    /// and the same ID lands in several hours or twice in one.
    fn snapshot(rng: &mut Rng) -> TopicSnapshot {
        let offset = if rng.below(5) == 0 { 500 } else { 0 };
        let hours = (0..rng.below(8))
            .map(|_| {
                let mut video_ids = ids(rng, offset, 12);
                if let Some(dup) = video_ids.first().cloned() {
                    if rng.below(3) == 0 {
                        video_ids.push(dup);
                    }
                }
                HourlyResult {
                    hour: rng.below(60) as u32,
                    video_ids,
                    total_results: 0,
                }
            })
            .collect();
        TopicSnapshot {
            hours,
            meta_returned: Vec::new(),
        }
    }

    fn set(ids: &[VideoId]) -> HashSet<VideoId> {
        ids.iter().cloned().collect()
    }

    /// Figure 4's comparison as first written: three cloned intersections.
    fn reference_point(
        search: &HashSet<VideoId>,
        meta: &HashSet<VideoId>,
        search_ref: &HashSet<VideoId>,
        meta_ref: &HashSet<VideoId>,
        comparison_id: usize,
    ) -> Figure4Point {
        let common: HashSet<VideoId> = search.intersection(search_ref).cloned().collect();
        let current: HashSet<VideoId> = meta.intersection(&common).cloned().collect();
        let reference: HashSet<VideoId> = meta_ref.intersection(&common).cloned().collect();
        let denom = common.len().max(1) as f64;
        Figure4Point {
            comparison_id,
            coverage_current: 100.0 * current.len() as f64 / denom,
            coverage_reference: 100.0 * reference.len() as f64 / denom,
            jaccard_common: jaccard(&current, &reference),
        }
    }

    #[test]
    fn set_kernels_figure4_matches_the_hashset_reference() {
        let seed = prop_seed(SEED);
        let mut rng = Rng::new(seed);
        for case in 0..CASES {
            let mut acc = Figure4Accumulator::new(Topic::Higgs);
            let mut snapshots: Vec<(HashSet<VideoId>, HashSet<VideoId>)> = Vec::new();
            let (mut vs_previous, mut vs_first) = (Vec::new(), Vec::new());
            for t in 0..1 + rng.below(6) as usize {
                let offset = if rng.below(4) == 0 { 100 * t as u64 } else { 0 };
                let search = set(&ids(&mut rng, offset, 30));
                let meta = set(&ids(&mut rng, offset, 30));
                if let (Some(first), Some(prev)) = (snapshots.first(), snapshots.last()) {
                    vs_previous.push(reference_point(&search, &meta, &prev.0, &prev.1, t));
                    vs_first.push(reference_point(&search, &meta, &first.0, &first.1, t));
                }
                acc.fold(search.clone(), meta.clone());
                snapshots.push((search, meta));
            }
            let fig = acc.finish();
            assert_eq!(fig.vs_previous, vs_previous, "seed {seed} case {case}");
            assert_eq!(fig.vs_first, vs_first, "seed {seed} case {case}");
            let bytes = wire::encode(|w| acc.encode_state(w));
            let decoded = wire::decode(&bytes, |r| {
                Figure4Accumulator::decode_state(Topic::Higgs, r)
            });
            let decoded = decoded.unwrap();
            assert_eq!(decoded.finish(), fig, "seed {seed} case {case}");
            assert_eq!(wire::encode(|w| decoded.encode_state(w)), bytes);
        }
    }

    #[test]
    fn set_kernels_regression_frequencies_match_the_hashset_reference() {
        let seed = prop_seed(SEED);
        let mut rng = Rng::new(seed ^ 1);
        for case in 0..CASES {
            let mut acc = RegressionAccumulator::new();
            let mut reference: BTreeMap<Topic, BTreeMap<VideoId, u32>> = BTreeMap::new();
            for _ in 0..1 + rng.below(6) {
                for topic in [Topic::Higgs, Topic::Blm] {
                    let ts = snapshot(&mut rng);
                    let distinct: HashSet<VideoId> = ts
                        .hours
                        .iter()
                        .flat_map(|h| h.video_ids.iter().cloned())
                        .collect();
                    let freqs = reference.entry(topic).or_default();
                    for id in distinct {
                        *freqs.entry(id).or_insert(0) += 1;
                    }
                    acc.fold(topic, &ts.id_set(), Timestamp(0), Vec::new());
                }
            }
            assert_eq!(acc.frequencies(), &reference, "seed {seed} case {case}");
        }
    }

    /// The per-hour (`hours_per_key` 1) or per-day (24) sets as first
    /// written: a `HashSet` per key, filled hour by hour. Per-hour sets are
    /// replaced by a repeated hour; per-day sets union their hours.
    fn reference_sets(ts: &TopicSnapshot, hours_per_key: u32) -> BTreeMap<u32, HashSet<VideoId>> {
        let mut sets: BTreeMap<u32, HashSet<VideoId>> = BTreeMap::new();
        for hour in &ts.hours {
            let ids = hour.video_ids.iter().cloned();
            if hours_per_key == 1 {
                sets.insert(hour.hour, ids.collect());
            } else {
                sets.entry(hour.hour / hours_per_key)
                    .or_default()
                    .extend(ids);
            }
        }
        sets
    }

    /// A reference set map in the checkpoint's encoding.
    fn put_reference_sets(w: &mut Writer, sets: &BTreeMap<u32, HashSet<VideoId>>) {
        w.put_list(sets, |w, (&key, ids)| {
            w.put_u32(key);
            encode_id_set(w, ids);
        });
    }

    #[test]
    fn set_kernels_table2_and_figure2_sets_match_the_hashset_reference() {
        let seed = prop_seed(SEED);
        let mut rng = Rng::new(seed ^ 2);
        let empty = HashSet::new();
        for case in 0..CASES {
            let snapshots: Vec<Arc<TopicSnapshot>> = (0..1 + rng.below(5))
                .map(|_| Arc::new(snapshot(&mut rng)))
                .collect();
            let (mut table2, mut figure2) = (
                Table2Accumulator::new(Topic::Blm),
                Figure2Accumulator::new(Topic::Blm),
            );
            let mut grid: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            let mut sums = [0u64; 28];
            for (s, ts) in snapshots.iter().enumerate() {
                table2.fold(ts);
                figure2.fold(ts);
                grid.values_mut().for_each(|column| column.push(0));
                for hour in &ts.hours {
                    let column = grid.entry(hour.hour).or_insert_with(|| vec![0; s + 1]);
                    *column.last_mut().unwrap() = hour.video_ids.len();
                }
                for (day, ids) in reference_sets(ts, 24) {
                    sums[day as usize] += ids.len() as u64;
                }
            }
            let (first, last) = (snapshots.first().unwrap(), snapshots.last().unwrap());

            // Table 2: per-hour J(first, last) against per-hour mean count.
            let (first_hours, last_hours) = (reference_sets(first, 1), reference_sets(last, 1));
            let (mut js, mut means) = (Vec::new(), Vec::new());
            for (hour, column) in &grid {
                let total: usize = column.iter().sum();
                if total > 0 {
                    let a = first_hours.get(hour).unwrap_or(&empty);
                    let b = last_hours.get(hour).unwrap_or(&empty);
                    js.push(jaccard(a, b));
                    means.push(total as f64 / column.len() as f64);
                }
            }
            let (rho, rho_p) =
                spearman(&js, &means).map_or((f64::NAN, f64::NAN), |c| (c.coefficient, c.p_value));
            let row = table2.finish();
            assert_eq!(row.n_hours, js.len(), "seed {seed} case {case}");
            assert_eq!(row.rho.to_bits(), rho.to_bits(), "seed {seed} case {case}");
            assert_eq!(
                row.rho_p.to_bits(),
                rho_p.to_bits(),
                "seed {seed} case {case}"
            );

            // Figure 2: per-day first/last sizes, average and J(first, last).
            let (first_days, last_days) = (reference_sets(first, 24), reference_sets(last, 24));
            for point in figure2.finish().days {
                let a = first_days.get(&point.day).unwrap_or(&empty);
                let b = last_days.get(&point.day).unwrap_or(&empty);
                assert_eq!(point.first, a.len(), "seed {seed} case {case}");
                assert_eq!(point.last, b.len(), "seed {seed} case {case}");
                let avg = sums[point.day as usize] as f64 / snapshots.len() as f64;
                assert_eq!(
                    point.avg.to_bits(),
                    avg.to_bits(),
                    "seed {seed} case {case}"
                );
                assert_eq!(point.jaccard_first_last.to_bits(), jaccard(a, b).to_bits());
            }

            // Checkpoints: the sets encode as the reference maps would, and
            // decoding rebuilds a state that encodes to the same bytes.
            let bytes = wire::encode(|w| table2.encode_state(w));
            let expected = wire::encode(|w| {
                w.put_u64(snapshots.len() as u64);
                w.put_list(&grid, |w, (&hour, column)| {
                    w.put_u32(hour);
                    w.put_list(column, |w, &c| w.put_u64(c as u64));
                });
                put_reference_sets(w, &first_hours);
                put_reference_sets(w, &last_hours);
            });
            assert_eq!(bytes, expected, "seed {seed} case {case}");
            let decoded = wire::decode(&bytes, |r| Table2Accumulator::decode_state(Topic::Blm, r));
            assert_eq!(wire::encode(|w| decoded.unwrap().encode_state(w)), bytes);

            let bytes = wire::encode(|w| figure2.encode_state(w));
            let expected = wire::encode(|w| {
                w.put_u64(snapshots.len() as u64);
                sums.iter().for_each(|&sum| w.put_u64(sum));
                put_reference_sets(w, &first_days);
                put_reference_sets(w, &last_days);
            });
            assert_eq!(bytes, expected, "seed {seed} case {case}");
            let decoded = wire::decode(&bytes, |r| Figure2Accumulator::decode_state(Topic::Blm, r));
            let decoded = decoded.unwrap();
            assert_eq!(
                decoded.finish(),
                figure2.finish(),
                "seed {seed} case {case}"
            );
            assert_eq!(wire::encode(|w| decoded.encode_state(w)), bytes);
        }
    }

    /// Table 5 as first written: owned `HashSet<String>` comment sets,
    /// filtered a second time for the shared videos.
    fn reference_table5(
        topic: Topic,
        first: (&CommentsSnapshot, &HashSet<VideoId>),
        last: (&CommentsSnapshot, &HashSet<VideoId>),
    ) -> Table5Row {
        let cutoff = topic.spec().focal_date.add_days(21);
        let shared: HashSet<VideoId> = first.1.intersection(last.1).cloned().collect();
        let sets = |snapshot: &CommentsSnapshot, only: Option<&HashSet<VideoId>>| {
            let (mut top_level, mut nested) = (HashSet::new(), HashSet::new());
            for record in &snapshot.comments {
                if record.published_at > cutoff
                    || only.is_some_and(|only| !only.contains(&record.video_id))
                {
                    continue;
                }
                if record.is_reply {
                    nested.insert(record.id.clone());
                } else {
                    top_level.insert(record.id.clone());
                }
            }
            (top_level, nested)
        };
        let maybe = |a: &HashSet<String>, b: &HashSet<String>| {
            (!a.is_empty() || !b.is_empty()).then(|| jaccard(a, b))
        };
        let (tl_first, n_first) = sets(first.0, None);
        let (tl_last, n_last) = sets(last.0, None);
        let (tl_first_s, n_first_s) = sets(first.0, Some(&shared));
        let (tl_last_s, n_last_s) = sets(last.0, Some(&shared));
        Table5Row {
            topic,
            top_level_non_shared: maybe(&tl_first, &tl_last),
            nested_non_shared: maybe(&n_first, &n_last),
            top_level_shared: maybe(&tl_first_s, &tl_last_s),
            nested_shared: maybe(&n_first_s, &n_last_s),
        }
    }

    #[test]
    fn set_kernels_table5_matches_the_hashset_reference() {
        let seed = prop_seed(SEED);
        let mut rng = Rng::new(seed ^ 3);
        let topic = Topic::Grammys;
        let cutoff = topic.spec().focal_date.add_days(21);
        for case in 0..CASES {
            // Comments on a small video pool, grouped by video the way a
            // crawl lists them, with repeated comment IDs and dates on
            // both sides of the cutoff.
            let mut crawl = || {
                let mut comments = Vec::new();
                for video in 0..rng.below(6) {
                    for _ in 0..rng.below(8) {
                        comments.push(CommentRecord {
                            id: format!("c{:02}", rng.below(40)),
                            video_id: VideoId::new(format!("v{video:03}")),
                            is_reply: rng.below(3) == 0,
                            published_at: cutoff.add_days(rng.below(5) as i64 - 2),
                        });
                    }
                }
                CommentsSnapshot {
                    comments,
                    fetch_errors: Vec::new(),
                }
            };
            let (first, last) = (crawl(), crawl());
            let (first_ids, last_ids) = (set(&ids(&mut rng, 0, 6)), set(&ids(&mut rng, 0, 6)));
            let mut acc = Table5Accumulator::new(topic);
            acc.fold(Some(first.clone()), first_ids.clone());
            acc.fold(Some(last.clone()), last_ids.clone());
            let expected = reference_table5(topic, (&first, &first_ids), (&last, &last_ids));
            assert_eq!(acc.finish(), Some(expected), "seed {seed} case {case}");
        }
    }
}
