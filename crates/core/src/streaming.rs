//! The streaming analyzer: folds committed (topic, snapshot) pairs into
//! online accumulators as they land and finalizes into an
//! [`AnalysisReport`].
//!
//! Each pair carries a **plan index** — `snapshot × topics.len() + the
//! topic's position in plan order` — the order a sequential collection
//! commits pairs. The analyzer folds pairs strictly in plan-index order;
//! out-of-order arrivals wait in a small reorder buffer whose peak size
//! is reported (and optionally capped) so callers can assert that a
//! follow-mode analysis never materializes the dataset.
//!
//! The batch entry point [`Analyzer::analyze_dataset`] replays a
//! materialized [`AuditDataset`] through the very same accumulators —
//! "fold everything, then finish" — so batch and follow analyses share
//! one numeric code path and produce bit-identical report JSON.
//!
//! [`Analyzer::encode_state`] checkpoints the accumulators for a killable
//! follow-mode analysis in the shared [`ytaudit_types::wire`] encoding.
//! The follow driver installs checkpoints by tmp + fsync + rename, so a
//! crash leaves the old or the new one, never a torn one: no CRC needed.

use crate::attrition::{figure3_from_chain, AttritionAccumulator};
use crate::comments::Table5Accumulator;
use crate::consistency::ConsistencyAccumulator;
use crate::dataset::{
    put_channel_info, read_channel_info, AuditDataset, ChannelInfo, CommentsSnapshot,
    TopicSnapshot, VideoInfo,
};
use crate::idcheck::Figure4Accumulator;
use crate::poolsize::Table4Accumulator;
use crate::randomization::{Figure2Accumulator, Table2Accumulator};
use crate::regression::{table3, table6, table7, RegressionAccumulator};
use crate::report::{AnalysisReport, RegressionReport};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use ytaudit_stats::markov::MarkovChain2;
use ytaudit_stats::Result as StatsResult;
use ytaudit_types::wire::{self, Reader, Writer};
use ytaudit_types::{ChannelId, Timestamp, Topic, VideoId};

/// File magic for analyzer checkpoints.
pub const CKPT_MAGIC: &[u8; 8] = b"YTAUDCK1";

/// Checkpoint format version, bumped on any incompatible state change.
/// Version 2 took the shared wire codec's `u32` string and count
/// prefixes; a checkpoint is rebuildable from the store, so older
/// versions are rejected rather than migrated.
pub const CKPT_VERSION: u8 = 2;

/// One committed (topic, snapshot) pair, as the follow driver reads it
/// off the store log or the batch path slices it out of a dataset.
#[derive(Debug, Clone)]
pub struct FoldInput {
    /// The topic of this pair.
    pub topic: Topic,
    /// The snapshot's collection date.
    pub date: Timestamp,
    /// The committed search results.
    pub data: TopicSnapshot,
    /// The comment collection, when this snapshot fetched comments.
    pub comments: Option<CommentsSnapshot>,
    /// Video metadata fetched alongside this pair.
    pub videos: Vec<VideoInfo>,
    /// Quota units this pair's commit recorded.
    pub quota_delta: u64,
}

/// Errors from offering pairs to an [`Analyzer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The reorder buffer exceeded the configured cap — the input is
    /// arriving too far out of plan order for bounded-memory analysis.
    BufferCap {
        /// Pairs currently buffered.
        buffered: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A pair was offered after [`Analyzer::end`].
    Ended,
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::BufferCap { buffered, cap } => write!(
                f,
                "reorder buffer holds {buffered} pairs, exceeding the cap of {cap}"
            ),
            AnalyzeError::Ended => write!(f, "pair offered after end of collection"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// The streaming analyzer: one accumulator per (experiment, topic), plus
/// the pooled regression state.
#[derive(Debug, Clone)]
pub struct Analyzer {
    topics: Vec<Topic>,
    folded: u64,
    buffer: BTreeMap<u64, FoldInput>,
    peak_buffered: usize,
    max_buffered: Option<usize>,
    consistency: Vec<ConsistencyAccumulator>,
    table2: Vec<Table2Accumulator>,
    figure2: Vec<Figure2Accumulator>,
    attrition: Vec<AttritionAccumulator>,
    table4: Vec<Table4Accumulator>,
    table5: Vec<Table5Accumulator>,
    figure4: Vec<Figure4Accumulator>,
    regression: RegressionAccumulator,
    quota: u64,
    channel_meta: BTreeMap<ChannelId, ChannelInfo>,
    ended: bool,
}

impl Analyzer {
    /// A fresh analyzer for a collection over `topics` (plan order).
    pub fn new(topics: Vec<Topic>) -> Analyzer {
        Analyzer {
            consistency: topics
                .iter()
                .map(|&t| ConsistencyAccumulator::new(t))
                .collect(),
            table2: topics.iter().map(|&t| Table2Accumulator::new(t)).collect(),
            figure2: topics.iter().map(|&t| Figure2Accumulator::new(t)).collect(),
            attrition: topics.iter().map(|_| AttritionAccumulator::new()).collect(),
            table4: topics.iter().map(|&t| Table4Accumulator::new(t)).collect(),
            table5: topics.iter().map(|&t| Table5Accumulator::new(t)).collect(),
            figure4: topics.iter().map(|&t| Figure4Accumulator::new(t)).collect(),
            regression: RegressionAccumulator::new(),
            topics,
            folded: 0,
            buffer: BTreeMap::new(),
            peak_buffered: 0,
            max_buffered: None,
            quota: 0,
            channel_meta: BTreeMap::new(),
            ended: false,
        }
    }

    /// Caps the reorder buffer: offers that would exceed `cap` buffered
    /// pairs fail with [`AnalyzeError::BufferCap`] instead of growing
    /// memory without bound.
    pub fn with_max_buffered(mut self, cap: usize) -> Analyzer {
        self.max_buffered = Some(cap);
        self
    }

    /// The topics under analysis, in plan order.
    pub fn topics(&self) -> &[Topic] {
        &self.topics
    }

    /// Number of pairs folded so far (the resume watermark: offers below
    /// it are silently dropped as already-folded duplicates).
    pub fn folded_pairs(&self) -> u64 {
        self.folded
    }

    /// Largest number of pairs the reorder buffer ever held.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Complete snapshots folded so far.
    pub fn snapshots_folded(&self) -> usize {
        if self.topics.is_empty() {
            0
        } else {
            (self.folded / self.topics.len() as u64) as usize
        }
    }

    /// True once [`Analyzer::end`] has been called.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Offers one pair at its plan index. Pairs below the fold watermark
    /// are dropped (already folded — the resume path re-reads the log
    /// from the start, so a replayed prefix must be a no-op even after
    /// the end record); pairs at the watermark fold immediately, along
    /// with any buffered successors they unblock; pairs above it wait in
    /// the reorder buffer.
    pub fn offer(&mut self, plan_idx: u64, input: FoldInput) -> Result<(), AnalyzeError> {
        if plan_idx < self.folded || self.buffer.contains_key(&plan_idx) {
            return Ok(());
        }
        if self.ended {
            return Err(AnalyzeError::Ended);
        }
        self.buffer.insert(plan_idx, input);
        self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        if let Some(cap) = self.max_buffered {
            if self.buffer.len() > cap {
                return Err(AnalyzeError::BufferCap {
                    buffered: self.buffer.len(),
                    cap,
                });
            }
        }
        while let Some(input) = self.buffer.remove(&self.folded) {
            self.fold_input(input);
            self.folded += 1;
        }
        Ok(())
    }

    /// Folds what a read that stopped at the end of an incomplete store
    /// left behind, the way [`Analyzer::analyze_dataset`] folds the
    /// dataset that store materializes: each snapshot with a committed
    /// pair, folded or still buffered, folds in full, its missing topics
    /// as empty pairs dated from `dates` (the plan's), and a snapshot
    /// with none is skipped. Afterwards the watermark counts folded pairs,
    /// not plan indices, so the state is for [`Analyzer::finish`] only and
    /// never for a checkpoint.
    pub fn fold_committed_prefix(&mut self, dates: &[Timestamp]) {
        let width = self.topics.len() as u64;
        if width == 0 {
            return;
        }
        let mut buffer = std::mem::take(&mut self.buffer);
        let mut snapshots: BTreeSet<u64> = buffer.keys().map(|idx| idx / width).collect();
        // Pairs of the snapshot at the watermark already folded.
        let started = self.folded % width;
        if started > 0 {
            snapshots.insert(self.folded / width);
        }
        for snapshot in snapshots {
            let Some(&date) = dates.get(snapshot as usize) else {
                continue;
            };
            // Every snapshot folds in full, so only the first can start
            // part way through.
            for pos in self.folded % width..width {
                let Some(&topic) = self.topics.get(pos as usize) else {
                    break;
                };
                let input = buffer
                    .remove(&(snapshot * width + pos))
                    .unwrap_or_else(|| FoldInput {
                        topic,
                        date,
                        data: TopicSnapshot::default(),
                        comments: None,
                        videos: Vec::new(),
                        quota_delta: 0,
                    });
                self.fold_input(input);
                self.folded += 1;
            }
        }
    }

    /// Folds one pair into every accumulator. The pair's ID set is built
    /// once and shared, and what an accumulator keeps past the fold (the
    /// search results, the comment crawl, the fetched metadata) is moved
    /// or shared into it, never copied.
    fn fold_input(&mut self, input: FoldInput) {
        let pos = (self.folded % self.topics.len().max(1) as u64) as usize;
        let id_set = Arc::new(input.data.id_set());
        let meta_set: HashSet<VideoId> = input.data.meta_returned.iter().cloned().collect();
        let data = Arc::new(input.data);
        if let Some(acc) = self.consistency.get_mut(pos) {
            acc.fold(Arc::clone(&id_set));
        }
        if let Some(acc) = self.table2.get_mut(pos) {
            acc.fold(&data);
        }
        if let Some(acc) = self.figure2.get_mut(pos) {
            acc.fold(&data);
        }
        if let Some(acc) = self.attrition.get_mut(pos) {
            acc.fold(&id_set);
        }
        if let Some(acc) = self.table4.get_mut(pos) {
            acc.fold(&data);
        }
        self.regression
            .fold(input.topic, &id_set, input.date, input.videos);
        if let Some(acc) = self.table5.get_mut(pos) {
            acc.fold(input.comments, Arc::clone(&id_set));
        }
        if let Some(acc) = self.figure4.get_mut(pos) {
            acc.fold(id_set, meta_set);
        }
        self.quota += input.quota_delta;
    }

    /// Marks the collection finished: records the end-of-collection
    /// channel fetches and the final quota delta. Idempotent — a resumed
    /// follow replays the end record it already folded.
    pub fn end(&mut self, channels: impl IntoIterator<Item = ChannelInfo>, quota_delta: u64) {
        if self.ended {
            return;
        }
        for channel in channels {
            self.channel_meta
                .entry(channel.id.clone())
                .or_insert(channel);
        }
        self.quota += quota_delta;
        self.ended = true;
    }

    /// Seeds video metadata directly (the batch path: a materialized
    /// dataset carries one merged metadata map rather than per-pair
    /// fetches; the contents are identical either way).
    pub fn seed_video_meta<'a>(&mut self, videos: impl IntoIterator<Item = &'a VideoInfo>) {
        for video in videos {
            self.regression.seed_video(video);
        }
    }

    /// Finalizes every accumulator into the combined report. The three
    /// regression fits are independent pure functions of the design
    /// matrix: two run on scoped threads while this thread finalizes every
    /// other table and then fits the third.
    pub fn finish(&self) -> AnalysisReport {
        let n_snapshots = self.snapshots_folded();
        let data = self
            .regression
            .finish(&self.topics, n_snapshots, &self.channel_meta)
            .map_err(|e| e.to_string());
        std::thread::scope(|scope| {
            let fits = data.as_ref().map(|data| {
                let spawn = || std::thread::Builder::new().name("ytaudit-fit".into());
                let table3 = spawn().spawn_scoped(scope, move || table3(data));
                let table7 = spawn().spawn_scoped(scope, move || table7(data));
                (data, table3, table7)
            });
            let mut chain = MarkovChain2::new();
            for acc in &self.attrition {
                chain.merge(acc.chain());
            }
            AnalysisReport {
                topics: self.topics.clone(),
                n_snapshots,
                quota_units_spent: self.quota,
                table1: self.consistency.iter().map(|a| a.table1_row()).collect(),
                figure1: self.consistency.iter().map(|a| a.figure1_topic()).collect(),
                table2: self.table2.iter().map(|a| a.finish()).collect(),
                figure2: self.figure2.iter().map(|a| a.finish()).collect(),
                figure3: figure3_from_chain(&chain),
                table4: self.table4.iter().filter_map(|a| a.finish()).collect(),
                table5: self.table5.iter().filter_map(|a| a.finish()).collect(),
                figure4: self.figure4.iter().map(|a| a.finish()).collect(),
                regression: fits
                    .map_err(String::clone)
                    .map(|(data, t3, t7)| RegressionReport {
                        names: data.names.clone(),
                        n_observations: data.frequency.len(),
                        table6: table6(data).map_err(|e| e.to_string()),
                        table3: joined(t3, || table3(data)),
                        table7: joined(t7, || table7(data)),
                    }),
            }
        })
    }

    /// Analyzes a materialized dataset by folding every (snapshot,
    /// topic) pair — missing pairs fold as empty defaults, preserving the
    /// batch behavior on partial collections — then finishing.
    pub fn analyze_dataset(dataset: &AuditDataset) -> AnalysisReport {
        let mut analyzer = Analyzer::new(dataset.topics.clone());
        let width = dataset.topics.len() as u64;
        for (s, snapshot) in dataset.snapshots.iter().enumerate() {
            for (t, &topic) in dataset.topics.iter().enumerate() {
                let input = FoldInput {
                    topic,
                    date: snapshot.date,
                    data: snapshot.topics.get(&topic).cloned().unwrap_or_default(),
                    comments: snapshot.comments.get(&topic).cloned(),
                    videos: Vec::new(),
                    quota_delta: 0,
                };
                // In-order offers cannot hit the buffer cap or the
                // ended state, so the result is always Ok.
                let _ = analyzer.offer(s as u64 * width + t as u64, input);
            }
        }
        analyzer.seed_video_meta(dataset.video_meta.values());
        analyzer.end(
            dataset.channel_meta.values().cloned(),
            dataset.quota_units_spent,
        );
        analyzer.finish()
    }

    /// Serializes the full analyzer state (excluding the reorder buffer —
    /// unfolded pairs are re-read from the store on resume) into
    /// checkpoint bytes.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(CKPT_MAGIC);
        w.put_u8(CKPT_VERSION);
        w.put_topics(&self.topics);
        w.put_u64(self.folded);
        w.put_u64(self.quota);
        w.put_bool(self.ended);
        w.put_list(self.channel_meta.values(), put_channel_info);
        // Topic-major: each topic's seven accumulators, in decode order.
        let per_topic = (self.consistency.iter().zip(&self.table2).zip(&self.figure2))
            .zip(self.attrition.iter().zip(&self.table4))
            .zip(self.table5.iter().zip(&self.figure4));
        for ((((consistency, table2), figure2), (attrition, table4)), (table5, figure4)) in
            per_topic
        {
            consistency.encode_state(&mut w);
            table2.encode_state(&mut w);
            figure2.encode_state(&mut w);
            attrition.encode_state(&mut w);
            table4.encode_state(&mut w);
            table5.encode_state(&mut w);
            figure4.encode_state(&mut w);
        }
        self.regression.encode_state(&mut w);
        w.into_bytes()
    }

    /// Rebuilds an analyzer from checkpoint bytes, rejecting foreign
    /// files, other format versions and trailing bytes.
    pub fn decode_state(bytes: &[u8]) -> wire::Result<Analyzer> {
        wire::decode(bytes, Analyzer::read_state)
    }

    fn read_state(r: &mut Reader<'_>) -> wire::Result<Analyzer> {
        if r.raw(CKPT_MAGIC.len())? != CKPT_MAGIC {
            return Err("not a ytaudit checkpoint (bad magic)".to_string());
        }
        let version = r.u8()?;
        if version != CKPT_VERSION {
            return Err(format!(
                "checkpoint format version {version} is not the supported version \
                 {CKPT_VERSION}; delete the checkpoint file to re-fold from the store"
            ));
        }
        let topics = r.topics()?;
        let n_topics = topics.len();
        let folded = r.u64()?;
        let quota = r.u64()?;
        let ended = r.bool()?;
        let channels = r.list(read_channel_info)?;
        let channel_meta = channels.into_iter().map(|c| (c.id.clone(), c)).collect();
        let mut consistency = Vec::with_capacity(n_topics);
        let mut table2 = Vec::with_capacity(n_topics);
        let mut figure2 = Vec::with_capacity(n_topics);
        let mut attrition = Vec::with_capacity(n_topics);
        let mut table4 = Vec::with_capacity(n_topics);
        let mut table5 = Vec::with_capacity(n_topics);
        let mut figure4 = Vec::with_capacity(n_topics);
        for &topic in &topics {
            consistency.push(ConsistencyAccumulator::decode_state(topic, r)?);
            table2.push(Table2Accumulator::decode_state(topic, r)?);
            figure2.push(Figure2Accumulator::decode_state(topic, r)?);
            attrition.push(AttritionAccumulator::decode_state(r)?);
            table4.push(Table4Accumulator::decode_state(topic, r)?);
            table5.push(Table5Accumulator::decode_state(topic, r)?);
            figure4.push(Figure4Accumulator::decode_state(topic, r)?);
        }
        let regression = RegressionAccumulator::decode_state(r)?;
        Ok(Analyzer {
            topics,
            folded,
            buffer: BTreeMap::new(),
            peak_buffered: 0,
            max_buffered: None,
            consistency,
            table2,
            figure2,
            attrition,
            table4,
            table5,
            figure4,
            regression,
            quota,
            channel_meta,
            ended,
        })
    }
}

/// The result of a fit started on a scoped thread, or of `inline` run
/// here when no thread could be started (a fit is a pure function, so
/// either way gives the same result). A fit whose thread panicked is an
/// error, like a fit that failed.
fn joined<T>(
    handle: std::io::Result<ScopedJoinHandle<'_, StatsResult<T>>>,
    inline: impl FnOnce() -> StatsResult<T>,
) -> Result<T, String> {
    let result = match handle {
        Ok(handle) => handle
            .join()
            .map_err(|_| "the fit's thread panicked".to_string())?,
        Err(_) => inline(),
    };
    result.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{Collector, CollectorConfig};
    use crate::testutil::test_client;

    fn full_dataset() -> AuditDataset {
        let (client, _service) = test_client(0.3);
        let mut config = CollectorConfig::quick(vec![Topic::Blm, Topic::Higgs, Topic::WorldCup], 4);
        config.fetch_comments = true;
        Collector::new(&client, config).run().unwrap()
    }

    fn offers_from(dataset: &AuditDataset) -> Vec<(u64, FoldInput)> {
        let width = dataset.topics.len() as u64;
        let mut offers = Vec::new();
        for (s, snapshot) in dataset.snapshots.iter().enumerate() {
            for (t, &topic) in dataset.topics.iter().enumerate() {
                offers.push((
                    s as u64 * width + t as u64,
                    FoldInput {
                        topic,
                        date: snapshot.date,
                        data: snapshot.topics.get(&topic).cloned().unwrap_or_default(),
                        comments: snapshot.comments.get(&topic).cloned(),
                        videos: Vec::new(),
                        quota_delta: 0,
                    },
                ));
            }
        }
        offers
    }

    fn follow_style_report(
        dataset: &AuditDataset,
        offers: Vec<(u64, FoldInput)>,
    ) -> AnalysisReport {
        let mut analyzer = Analyzer::new(dataset.topics.clone());
        for (plan_idx, input) in offers {
            analyzer.offer(plan_idx, input).unwrap();
        }
        analyzer.seed_video_meta(dataset.video_meta.values());
        analyzer.end(
            dataset.channel_meta.values().cloned(),
            dataset.quota_units_spent,
        );
        analyzer.finish()
    }

    #[test]
    fn streaming_matches_batch_bit_for_bit() {
        let dataset = full_dataset();
        let batch = Analyzer::analyze_dataset(&dataset);
        let streamed = follow_style_report(&dataset, offers_from(&dataset));
        assert_eq!(batch.to_json(), streamed.to_json());
        assert_eq!(batch.quota_units_spent, dataset.quota_units_spent);
    }

    #[test]
    fn out_of_order_offers_reorder_and_match() {
        let dataset = full_dataset();
        let batch = Analyzer::analyze_dataset(&dataset);
        let mut offers = offers_from(&dataset);
        // Reverse within a window of 4 — a worst case far beyond what a
        // sequential store produces.
        offers.reverse();
        offers.sort_by_key(|(idx, _)| idx / 4);
        let mut analyzer = Analyzer::new(dataset.topics.clone());
        for (plan_idx, input) in offers {
            analyzer.offer(plan_idx, input).unwrap();
        }
        assert!(analyzer.peak_buffered() >= 4);
        analyzer.seed_video_meta(dataset.video_meta.values());
        analyzer.end(
            dataset.channel_meta.values().cloned(),
            dataset.quota_units_spent,
        );
        assert_eq!(batch.to_json(), analyzer.finish().to_json());
    }

    #[test]
    fn buffer_cap_rejects_runaway_reordering() {
        let dataset = full_dataset();
        let mut analyzer = Analyzer::new(dataset.topics.clone()).with_max_buffered(2);
        let offers = offers_from(&dataset);
        // Offer pairs 1.. without pair 0: everything buffers.
        let mut hit_cap = false;
        for (plan_idx, input) in offers.into_iter().skip(1) {
            if let Err(AnalyzeError::BufferCap { cap, .. }) = analyzer.offer(plan_idx, input) {
                assert_eq!(cap, 2);
                hit_cap = true;
                break;
            }
        }
        assert!(hit_cap);
        // In-order offers never buffer more than one pair.
        let mut inorder = Analyzer::new(dataset.topics.clone()).with_max_buffered(1);
        for (plan_idx, input) in offers_from(&dataset) {
            inorder.offer(plan_idx, input).unwrap();
        }
        assert_eq!(inorder.peak_buffered(), 1);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let dataset = full_dataset();
        let offers = offers_from(&dataset);
        let cut = offers.len() / 2;
        let mut analyzer = Analyzer::new(dataset.topics.clone());
        for (plan_idx, input) in offers.iter().take(cut).cloned() {
            analyzer.offer(plan_idx, input).unwrap();
        }
        let bytes = analyzer.encode_state();
        let mut resumed = Analyzer::decode_state(&bytes).unwrap();
        assert_eq!(resumed.folded_pairs(), cut as u64);
        assert_eq!(resumed.topics(), dataset.topics.as_slice());
        // Resume re-reads the log from the start: already-folded offers
        // are dropped, the rest fold normally.
        for (plan_idx, input) in offers {
            resumed.offer(plan_idx, input).unwrap();
        }
        resumed.seed_video_meta(dataset.video_meta.values());
        resumed.end(
            dataset.channel_meta.values().cloned(),
            dataset.quota_units_spent,
        );
        let batch = Analyzer::analyze_dataset(&dataset);
        assert_eq!(batch.to_json(), resumed.finish().to_json());
    }

    #[test]
    fn empty_collection_finishes_cleanly() {
        let analyzer = Analyzer::new(vec![Topic::Higgs]);
        let report = analyzer.finish();
        assert_eq!(report.n_snapshots, 0);
        assert!(report.table4.is_empty());
        assert!(report.figure3.is_none());
        assert!(report.regression.is_err());
        // The JSON writer accepts the degenerate report.
        assert!(report.to_json().contains("\"figure3\":null"));
    }

    #[test]
    fn chain_codec_round_trips() {
        let dataset = full_dataset();
        let mut acc = AttritionAccumulator::new();
        for i in 0..dataset.len() {
            acc.fold(&dataset.id_set(Topic::Blm, i));
        }
        let bytes = wire::encode(|w| acc.encode_state(w));
        let decoded = wire::decode(&bytes, AttritionAccumulator::decode_state).unwrap();
        assert_eq!(decoded.chain(), acc.chain());
        assert_eq!(
            figure3_from_chain(decoded.chain()),
            figure3_from_chain(acc.chain())
        );
    }

    #[test]
    fn checkpoint_header_rejects_foreign_and_stale_files() {
        let bytes = Analyzer::new(vec![Topic::Higgs]).encode_state();
        assert!(bytes.starts_with(CKPT_MAGIC));
        assert!(Analyzer::decode_state(&bytes).is_ok());

        let mut foreign = bytes.clone();
        foreign[..8].copy_from_slice(b"NOTACKPT");
        let err = Analyzer::decode_state(&foreign).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        // The magic alone lacks the version byte.
        assert!(Analyzer::decode_state(CKPT_MAGIC).is_err());

        // A version-1 file (u64 prefixes) is refused with a way out.
        let mut stale = bytes.clone();
        stale[8] = 1;
        let err = Analyzer::decode_state(&stale).unwrap_err();
        assert!(err.contains("version 1") && err.contains("delete"), "{err}");

        // Truncation and trailing garbage are both errors.
        assert!(Analyzer::decode_state(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Analyzer::decode_state(&long).is_err());
    }

    /// The smallest records the writer can produce — one-byte IDs — must
    /// decode: a list's count is bounded by the bytes left, not by a
    /// guessed per-item size.
    #[test]
    fn checkpoint_with_one_byte_ids_round_trips() {
        let mut analyzer = Analyzer::new(vec![Topic::Higgs]);
        let videos: Vec<VideoInfo> = ["a", "b", "c"]
            .into_iter()
            .map(|id| VideoInfo {
                id: VideoId::new(id),
                channel_id: ChannelId::new("c"),
                published_at: Timestamp(0),
                duration_secs: 1,
                is_sd: false,
                views: 2,
                likes: 3,
                comments: 4,
            })
            .collect();
        analyzer.seed_video_meta(&videos);
        let channel = ChannelInfo {
            id: ChannelId::new("c"),
            published_at: Timestamp(0),
            views: 5,
            subscribers: 6,
            video_count: 3,
        };
        analyzer.end([channel], 0);
        let bytes = analyzer.encode_state();
        let decoded = Analyzer::decode_state(&bytes).unwrap();
        assert_eq!(decoded.encode_state(), bytes);
    }

    /// Overwrites every 4- and 8-byte window of a checkpoint with huge
    /// counts: decoding must return `Ok` or `Err`, never panic or try to
    /// allocate from the corrupt length.
    #[test]
    fn corrupt_counts_in_a_checkpoint_never_panic() {
        // A trimmed collection fills every accumulator field while keeping
        // the checkpoint small enough for a quadratic sweep.
        let mut dataset = full_dataset();
        for snapshot in &mut dataset.snapshots {
            for ts in snapshot.topics.values_mut() {
                ts.hours.truncate(2);
                ts.hours.iter_mut().for_each(|h| h.video_ids.truncate(3));
                ts.meta_returned.truncate(2);
            }
            for cs in snapshot.comments.values_mut() {
                cs.comments.truncate(2);
            }
        }
        let mut analyzer = Analyzer::new(dataset.topics.clone());
        for (plan_idx, input) in offers_from(&dataset) {
            analyzer.offer(plan_idx, input).unwrap();
        }
        analyzer.seed_video_meta(dataset.video_meta.values().take(3));
        analyzer.end(dataset.channel_meta.values().take(2).cloned(), 3);
        let bytes = analyzer.encode_state();
        assert!(bytes.len() < 16 * 1024, "{} bytes", bytes.len());
        let patches: [&[u8]; 3] = [
            &u32::MAX.to_le_bytes(),
            &u64::MAX.to_le_bytes(),
            &(1u64 << 40).to_le_bytes(),
        ];
        for patch in patches {
            for at in 0..=bytes.len() - patch.len() {
                let mut mutated = bytes.clone();
                mutated[at..at + patch.len()].copy_from_slice(patch);
                let _ = Analyzer::decode_state(&mutated);
            }
        }
    }
}
