//! Randomization-mechanism analysis: Table 2 and Figure 2.
//!
//! Tests the ceiling-effect hypothesis (per-hour returns never approach
//! the 50/page cap; per-hour volume correlates weakly *positively* with
//! consistency) and exposes the density signature: per-day return
//! histograms coincide across snapshots while per-day Jaccard does not
//! track volume.

use crate::dataset::{HourlyResult, TopicSnapshot};
use crate::idsets::{day_sets, decode_id_set, encode_id_set, hour_sets, sorted_jaccard};
use std::collections::BTreeMap;
use std::sync::Arc;
use ytaudit_stats::rank::spearman;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{Topic, VideoId};

/// A Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The topic.
    pub topic: Topic,
    /// Mean videos per (hour, snapshot) cell.
    pub mean: f64,
    /// Minimum cell count.
    pub min: usize,
    /// Maximum cell count — stays far below the 50/page cap, ruling out
    /// ceiling effects.
    pub max: usize,
    /// Cell standard deviation.
    pub std: f64,
    /// Spearman ρ between per-hour J(T₁, T_L) and per-hour mean count,
    /// over hours with any returns.
    pub rho: f64,
    /// Two-sided p-value of ρ.
    pub rho_p: f64,
    /// Hours retained after dropping all-zero hours.
    pub n_hours: usize,
}

/// One day of Figure 2 for a topic.
#[derive(Debug, Clone, PartialEq)]
pub struct DayPoint {
    /// Day index within the 28-day window (0-based).
    pub day: u32,
    /// Videos returned that day in the first snapshot.
    pub first: usize,
    /// Videos returned that day in the last snapshot.
    pub last: usize,
    /// Mean across all snapshots.
    pub avg: f64,
    /// Jaccard between the first and last snapshots' sets for this day.
    pub jaccard_first_last: f64,
}

/// Figure 2 for one topic.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure2Topic {
    /// The topic.
    pub topic: Topic,
    /// One point per window day.
    pub days: Vec<DayPoint>,
}

/// Streaming Table-2 accumulator for one topic: maintains the per-hour
/// count grid plus the first and latest snapshots, so state is
/// O(hours × snapshots) counts + two snapshots' results. The snapshots are
/// shared with the analyzer's other accumulators, not copied; their
/// per-hour ID sets are only built at [`Table2Accumulator::finish`] and
/// checkpoint time. Hours are keyed in a `BTreeMap`, which also makes the
/// Spearman input ordering deterministic (the old batch code iterated a
/// `HashMap`, so its ρ could wobble in the last bits between runs).
#[derive(Debug, Clone)]
pub struct Table2Accumulator {
    topic: Topic,
    folds: usize,
    grid: BTreeMap<u32, Vec<usize>>,
    first: Arc<TopicSnapshot>,
    last: Arc<TopicSnapshot>,
}

impl Table2Accumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> Table2Accumulator {
        Table2Accumulator {
            topic,
            folds: 0,
            grid: BTreeMap::new(),
            first: Arc::default(),
            last: Arc::default(),
        }
    }

    /// Folds the next snapshot's hourly results. A snapshot that did not
    /// cover this topic folds as the (default) empty [`TopicSnapshot`],
    /// which contributes a column of zeros — exactly what the batch code
    /// did for missing snapshots.
    pub fn fold(&mut self, ts: &Arc<TopicSnapshot>) {
        let s = self.folds;
        // Grow every known hour's column vector by one zero cell, then
        // overwrite the cells this snapshot actually returned (duplicate
        // hour entries last-win, matching the batch grid build).
        for column in self.grid.values_mut() {
            column.push(0);
        }
        for hour in &ts.hours {
            let column = self.grid.entry(hour.hour).or_insert_with(|| vec![0; s + 1]);
            if let Some(cell) = column.last_mut() {
                *cell = hour.video_ids.len();
            }
        }
        if s == 0 {
            self.first = Arc::clone(ts);
        }
        self.last = Arc::clone(ts);
        self.folds += 1;
    }

    /// Finalizes into a [`Table2Row`] over everything folded so far.
    pub fn finish(&self) -> Table2Row {
        // Cell-level descriptive statistics over every (hour, snapshot)
        // cell, including the all-zero hours (the paper's mean ≈
        // total/672).
        let mut cells: Vec<f64> = Vec::new();
        let max_hour = 672u32;
        for hour in 0..max_hour {
            match self.grid.get(&hour) {
                Some(per_snapshot) => cells.extend(per_snapshot.iter().map(|&c| c as f64)),
                None => cells.extend(std::iter::repeat_n(0.0, self.folds)),
            }
        }
        let mean = cells.iter().sum::<f64>() / cells.len().max(1) as f64;
        let min = cells.iter().cloned().fold(f64::INFINITY, f64::min).max(0.0) as usize;
        let max = cells.iter().cloned().fold(0.0, f64::max) as usize;
        let var = cells.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>()
            / (cells.len().saturating_sub(1)).max(1) as f64;

        // Correlation: per-hour J(first, last) vs per-hour mean count,
        // over hours with at least one return across snapshots.
        let (first_sets, last_sets) = (hour_sets(&self.first), hour_sets(&self.last));
        let mut js = Vec::new();
        let mut means = Vec::new();
        for (hour, per_snapshot) in &self.grid {
            let total: usize = per_snapshot.iter().sum();
            if total == 0 {
                continue;
            }
            let a = first_sets.get(hour).map_or(&[][..], Vec::as_slice);
            let b = last_sets.get(hour).map_or(&[][..], Vec::as_slice);
            js.push(sorted_jaccard(a, b));
            means.push(total as f64 / per_snapshot.len() as f64);
        }
        let (rho, rho_p) = match spearman(&js, &means) {
            Ok(c) => (c.coefficient, c.p_value),
            Err(_) => (f64::NAN, f64::NAN),
        };
        Table2Row {
            topic: self.topic,
            mean,
            min,
            max,
            std: var.sqrt(),
            rho,
            rho_p,
            n_hours: js.len(),
        }
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.folds as u64);
        w.put_list(&self.grid, |w, (&hour, column)| {
            w.put_u32(hour);
            w.put_list(column, |w, &c| w.put_u64(c as u64));
        });
        encode_set_map(w, &hour_sets(&self.first));
        encode_set_map(w, &hour_sets(&self.last));
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<Table2Accumulator> {
        let folds = r.u64()? as usize;
        let grid = r.list(|r| Ok((r.u32()?, r.list(|r| Ok(r.u64()? as usize))?)))?;
        Ok(Table2Accumulator {
            topic,
            folds,
            grid: grid.into_iter().collect(),
            first: Arc::new(decode_set_map(r, 1)?),
            last: Arc::new(decode_set_map(r, 1)?),
        })
    }
}

/// Streaming Figure-2 accumulator for one topic: per-day count sums plus
/// the first and latest snapshots, shared like [`Table2Accumulator`]'s.
#[derive(Debug, Clone)]
pub struct Figure2Accumulator {
    topic: Topic,
    folds: usize,
    sums: [u64; 28],
    first: Arc<TopicSnapshot>,
    last: Arc<TopicSnapshot>,
}

impl Figure2Accumulator {
    /// An empty accumulator for `topic`.
    pub fn new(topic: Topic) -> Figure2Accumulator {
        Figure2Accumulator {
            topic,
            folds: 0,
            sums: [0; 28],
            first: Arc::default(),
            last: Arc::default(),
        }
    }

    /// Folds the next snapshot's hourly results, unioning hours into
    /// window days. The day sums are exact `u64` counts, so their `f64`
    /// average is bit-identical to the batch sum of per-snapshot sizes
    /// (every partial sum of set sizes is far below 2⁵³).
    pub fn fold(&mut self, ts: &Arc<TopicSnapshot>) {
        for (&day, set) in &day_sets(ts) {
            if let Some(sum) = self.sums.get_mut(day as usize) {
                *sum += set.len() as u64;
            }
        }
        if self.folds == 0 {
            self.first = Arc::clone(ts);
        }
        self.last = Arc::clone(ts);
        self.folds += 1;
    }

    /// Finalizes into a [`Figure2Topic`] over everything folded so far.
    pub fn finish(&self) -> Figure2Topic {
        let (first_sets, last_sets) = (day_sets(&self.first), day_sets(&self.last));
        let days = (0..28)
            .map(|day| {
                let first = first_sets.get(&day).map_or(&[][..], Vec::as_slice);
                let last = last_sets.get(&day).map_or(&[][..], Vec::as_slice);
                let sum = self.sums.get(day as usize).copied().unwrap_or(0);
                DayPoint {
                    day,
                    first: first.len(),
                    last: last.len(),
                    avg: sum as f64 / self.folds.max(1) as f64,
                    jaccard_first_last: sorted_jaccard(first, last),
                }
            })
            .collect();
        Figure2Topic {
            topic: self.topic,
            days,
        }
    }

    /// Serializes accumulator state for a checkpoint.
    pub fn encode_state(&self, w: &mut Writer) {
        w.put_u64(self.folds as u64);
        for &sum in &self.sums {
            w.put_u64(sum);
        }
        encode_set_map(w, &day_sets(&self.first));
        encode_set_map(w, &day_sets(&self.last));
    }

    /// Rebuilds accumulator state from a checkpoint.
    pub fn decode_state(topic: Topic, r: &mut Reader<'_>) -> wire::Result<Figure2Accumulator> {
        let folds = r.u64()? as usize;
        let mut sums = [0u64; 28];
        for sum in &mut sums {
            *sum = r.u64()?;
        }
        Ok(Figure2Accumulator {
            topic,
            folds,
            sums,
            first: Arc::new(decode_set_map(r, 24)?),
            last: Arc::new(decode_set_map(r, 24)?),
        })
    }
}

/// Writes an hour- or day-keyed map of video-ID sets.
fn encode_set_map(w: &mut Writer, map: &BTreeMap<u32, Vec<&VideoId>>) {
    w.put_list(map, |w, (&key, ids)| {
        w.put_u32(key);
        encode_id_set(w, ids.iter().copied());
    });
}

/// Reads a map written by [`encode_set_map`] back into a snapshot with
/// one hour entry per key, holding that key's IDs; key `k` becomes hour
/// `k · hours_per_key`. [`hour_sets`] (1 hour per key) or [`day_sets`]
/// (24) of that snapshot is exactly the map that was written.
fn decode_set_map(r: &mut Reader<'_>, hours_per_key: u32) -> wire::Result<TopicSnapshot> {
    let hours = r.list(|r| {
        let key = r.u32()?;
        let hour = key
            .checked_mul(hours_per_key)
            .ok_or_else(|| format!("set key {key} is out of range"))?;
        let video_ids = decode_id_set(r)?.into_iter().collect();
        Ok(HourlyResult {
            hour,
            video_ids,
            total_results: 0,
        })
    })?;
    Ok(TopicSnapshot {
        hours,
        meta_returned: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::dataset::AuditDataset;
    use crate::testutil::test_client;
    use crate::Analyzer;

    fn quick_dataset() -> AuditDataset {
        let (client, _service) = test_client(0.25);
        let config = CollectorConfig {
            fetch_metadata: false,
            fetch_channels: false,
            ..CollectorConfig::quick(vec![Topic::Capitol, Topic::WorldCup], 3)
        };
        Collector::new(&client, config).run().unwrap()
    }

    #[test]
    fn per_hour_counts_stay_below_the_page_cap() {
        let dataset = quick_dataset();
        for row in Analyzer::analyze_dataset(&dataset).table2 {
            assert!(row.max < 50, "{}: max {}", row.topic, row.max);
            assert_eq!(row.min, 0, "{}", row.topic);
            assert!(
                row.mean > 0.0 && row.mean < 5.0,
                "{}: mean {}",
                row.topic,
                row.mean
            );
            assert!(row.n_hours > 10, "{}: N {}", row.topic, row.n_hours);
            assert!(row.n_hours <= 672);
            if row.rho.is_finite() {
                assert!((-1.0..=1.0).contains(&row.rho));
            }
        }
    }

    #[test]
    fn mean_is_total_over_all_hours() {
        let dataset = quick_dataset();
        let report = Analyzer::analyze_dataset(&dataset);
        let row = report
            .table2
            .iter()
            .find(|r| r.topic == Topic::Capitol)
            .unwrap();
        let total: usize = (0..dataset.len())
            .map(|i| dataset.id_set(Topic::Capitol, i).len())
            .sum();
        let expected = total as f64 / (672 * dataset.len()) as f64;
        assert!((row.mean - expected).abs() < 1e-9);
    }

    #[test]
    fn figure2_daily_shapes_coincide_across_snapshots() {
        let dataset = quick_dataset();
        for ft in Analyzer::analyze_dataset(&dataset).figure2 {
            assert_eq!(ft.days.len(), 28);
            // The average curve correlates strongly with both first and
            // last (the paper: "map almost perfectly on each other").
            let avg: Vec<f64> = ft.days.iter().map(|d| d.avg).collect();
            let first: Vec<f64> = ft.days.iter().map(|d| d.first as f64).collect();
            let last: Vec<f64> = ft.days.iter().map(|d| d.last as f64).collect();
            let r1 = ytaudit_stats::rank::pearson(&avg, &first)
                .unwrap()
                .coefficient;
            let r2 = ytaudit_stats::rank::pearson(&avg, &last)
                .unwrap()
                .coefficient;
            assert!(r1 > 0.9, "{}: avg-first r {r1}", ft.topic);
            assert!(r2 > 0.9, "{}: avg-last r {r2}", ft.topic);
        }
    }

    #[test]
    fn capitol_peaks_at_its_focal_day() {
        let dataset = quick_dataset();
        let report = Analyzer::analyze_dataset(&dataset);
        let ft = report
            .figure2
            .iter()
            .find(|ft| ft.topic == Topic::Capitol)
            .unwrap();
        let peak_day = ft
            .days
            .iter()
            .max_by(|a, b| a.avg.partial_cmp(&b.avg).unwrap())
            .unwrap()
            .day;
        // Focal date is day 14 of the window; Capitol's burst is tight.
        assert!((13..=16).contains(&peak_day), "peak at day {peak_day}");
    }
}
