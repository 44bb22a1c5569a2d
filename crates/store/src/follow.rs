//! The analyze driver. [`follow_analyze`] reads a store log with a
//! [`TailReader`], folds each committed `(topic, snapshot)` pair into a
//! streaming [`Analyzer`] and finalizes into an [`AnalysisReport`]. A
//! follow (`analyze --follow`) tails a live store until the collection
//! ends; batch `analyze --store` is a follow that stops at the end of the
//! file and reports the committed prefix.
//!
//! Memory stays bounded by accumulator state and the reader's blob
//! bodies: pairs are folded one at a time straight off the log and never
//! gathered into a dataset. A follow re-polls at once after a pass that
//! read something and backs off when the store is idle ([`next_wait`]),
//! so a pair is folded soon after it lands.
//!
//! An optional checkpoint file makes the fold progress itself
//! crash-safe. It is written on a doubling schedule ([`checkpoint_due`]):
//! when the pairs folded since the last write are at least as many as
//! that write held, so a follow writes it a logarithmic number of times
//! and a restart refolds at most half of what was folded. Each write
//! replaces it atomically (tmp + fsync + rename + directory sync, with
//! the `stats.pre-checkpoint` faultpoint at the kill boundary), and a
//! restart decodes it, re-reads the log from the start, and lets the
//! analyzer's fold watermark drop the already-folded prefix.

use crate::error::{Result, StoreError};
use crate::records::CollectionMeta;
use crate::store::{fsync_dir_of, sibling_with_suffix};
use crate::tail::{TailEvent, TailReader};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;
use ytaudit_core::streaming::Analyzer;
use ytaudit_core::AnalysisReport;
use ytaudit_platform::faultpoint;
use ytaudit_types::PlatformKind;

/// How to drive a follow analysis.
#[derive(Debug, Clone)]
pub struct FollowOptions {
    /// Keep polling until the collection's end record is read. When
    /// `false`, one pass reads the file to its end (a torn tail ends it,
    /// interior damage fails it) and the report covers the committed
    /// prefix: the one [`Analyzer::analyze_dataset`] gives for the
    /// store's dataset, where a snapshot with some committed pairs folds
    /// its missing topics as empty pairs and a snapshot with none is
    /// skipped.
    pub follow: bool,
    /// The longest wait between polls of an idle store, in milliseconds
    /// (read as at least 1). After a pass that read something the reader
    /// polls again at once; see [`next_wait`].
    pub poll_ms: u64,
    /// Where to persist analyzer checkpoints (and resume from), on the
    /// schedule of [`checkpoint_due`].
    pub checkpoint: Option<PathBuf>,
    /// Reorder-buffer cap forwarded to [`Analyzer::with_max_buffered`].
    pub max_buffered: Option<usize>,
    /// When set, the store's Begin manifest must record this platform;
    /// a mismatch fails with [`StoreError::PlatformMismatch`] before
    /// any pair is folded.
    pub expect_platform: Option<PlatformKind>,
}

impl Default for FollowOptions {
    fn default() -> FollowOptions {
        FollowOptions {
            follow: true,
            poll_ms: 250,
            checkpoint: None,
            max_buffered: None,
            expect_platform: None,
        }
    }
}

/// Live progress, passed to the caller's callback after the first pass
/// over the store and after each pass that read something.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowProgress {
    /// Pairs folded so far.
    pub folded_pairs: u64,
    /// Pairs the stored plan calls for, once the plan has been read.
    pub planned_pairs: Option<usize>,
    /// Whether the end-of-collection record has been folded.
    pub ended: bool,
}

/// What a completed follow analysis produced.
#[derive(Debug)]
pub struct FollowOutcome {
    /// The finalized report.
    pub report: AnalysisReport,
    /// Pairs folded in plan order (resumed pairs included): the fold
    /// watermark when the read ended. The empty pairs that complete the
    /// snapshots of an incomplete store are not counted.
    pub folded_pairs: u64,
    /// Largest number of pairs the reorder buffer ever held.
    pub peak_buffered: usize,
    /// The fold watermark restored from a checkpoint, when one was.
    pub resumed_from: Option<u64>,
}

/// Events the reader thread may decode ahead of the fold. Each is one
/// resolved pair (tens of kilobytes at paper scale), so the bound caps
/// the extra memory while letting the reader run a few pairs ahead when a
/// fold is slower than the next decode.
const READ_AHEAD: usize = 8;

/// The reader's wait after the first pass that reads nothing.
const FIRST_WAIT: Duration = Duration::from_millis(1);

/// How long the follow reader waits after a pass, given the wait before
/// it. After a pass that read something (`advanced`) it polls again at
/// once: a live writer is mid-collection. An idle pass waits
/// [`FIRST_WAIT`], then twice the previous wait, never more than `cap`
/// (the poll interval, read as at least [`FIRST_WAIT`]).
fn next_wait(prev: Duration, advanced: bool, cap: Duration) -> Duration {
    if advanced {
        return Duration::ZERO;
    }
    prev.saturating_mul(2)
        .clamp(FIRST_WAIT, cap.max(FIRST_WAIT))
}

/// Whether a pass that leaves `folded` pairs folded writes a checkpoint,
/// when the last one written (or resumed from) held `last`: once the
/// pairs folded since are at least as many as it held. Pairs folded one
/// per pass are checkpointed at watermarks 1, 2, 4, 8, …, so a follow
/// writes O(log n) checkpoints and a restart refolds fewer pairs than
/// the checkpoint it resumes from holds.
fn checkpoint_due(folded: u64, last: u64) -> bool {
    folded > last && folded - last >= last
}

/// What the reader thread sends: one event, or the end of one pass over
/// the store.
enum Read {
    Event(TailEvent),
    CaughtUp,
}

/// Folds the committed pairs of the store at `path` into a streaming
/// analyzer and returns the finalized report: once the collection ends
/// when following, at the end of the file otherwise. `progress` is
/// called after the first pass over the store and after each later pass
/// that read an event, so a one-shot read calls it once and an idle
/// follow does not call it at all.
///
/// A scoped `ytaudit-read` thread reads the store into a channel bounded
/// by [`READ_AHEAD`], while this thread folds the events in the order
/// they were read and, after each pass, checkpoints when
/// [`checkpoint_due`] says so. A read error ends the
/// reader's stream; a fold error drops the receiving end, which stops
/// the reader at its next send, and wakes it from a poll interval. So
/// the first error in file order is the one returned, and no thread
/// outlives the call.
pub fn follow_analyze(
    path: &Path,
    options: &FollowOptions,
    progress: impl FnMut(FollowProgress),
) -> Result<FollowOutcome> {
    let restored = match &options.checkpoint {
        Some(ckpt_path) if ckpt_path.exists() => {
            let bytes = std::fs::read(ckpt_path)?;
            let restored = Analyzer::decode_state(&bytes)
                .map_err(|e| StoreError::Plan(format!("unreadable checkpoint: {e}")))?;
            Some(match options.max_buffered {
                Some(cap) => restored.with_max_buffered(cap),
                None => restored,
            })
        }
        _ => None,
    };
    let reader = TailReader::open(path)?;
    let poll = options
        .follow
        .then(|| Duration::from_millis(options.poll_ms));
    std::thread::scope(|scope| {
        let (events, received) = std::sync::mpsc::sync_channel(READ_AHEAD);
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let read = std::thread::Builder::new()
            .name("ytaudit-read".into())
            .spawn_scoped(scope, move || read_store(reader, poll, &events, &stopped))?;
        let outcome = fold(path, options, restored, received, progress);
        drop(stop);
        read.join()
            .map_err(|_| StoreError::Plan("the store reader thread panicked".into()))?;
        outcome
    })
}

/// The reader thread: sends every event of a pass over `reader`, then
/// [`Read::CaughtUp`]. Without a `poll` interval it makes one pass to
/// the end of the file under [`TailReader::next_event`]'s rule; with one
/// it polls, stalling at a torn tail and waiting [`next_wait`] with
/// `poll` as the cap between passes, until it has sent the end record.
/// It stops after the first error,
/// once the receiver is gone, or when `stop` disconnects. Returns how
/// many events it read.
fn read_store(
    mut reader: TailReader,
    poll: Option<Duration>,
    events: &SyncSender<Result<Read>>,
    stop: &Receiver<()>,
) -> u64 {
    let (mut read, mut wait) = (0, Duration::ZERO);
    loop {
        let before = read;
        // A failed send means the fold has returned; the error only ends
        // the pass, and nobody receives it.
        let mut send = |event: TailEvent| {
            read += 1;
            events
                .send(Ok(Read::Event(event)))
                .map_err(|_| StoreError::Plan("the fold stopped".into()))
        };
        let pass = match poll {
            Some(_) => reader.poll(&mut send).map(drop),
            None => std::iter::from_fn(|| reader.next_event().transpose())
                .try_for_each(|event| send(event?)),
        };
        let failed = pass.is_err();
        if events.send(pass.map(|()| Read::CaughtUp)).is_err() || failed || reader.ended() {
            return read;
        }
        let Some(cap) = poll else {
            return read;
        };
        wait = next_wait(wait, read > before, cap);
        if stop.recv_timeout(wait) != Err(RecvTimeoutError::Timeout) {
            return read;
        }
    }
}

/// Folds the reader's events in order: every pair through
/// [`Analyzer::offer`] at its plan index, and after each pass a
/// checkpoint when one is due and a progress report when the pass is the
/// first or read an event. Once the reader stops, the committed prefix
/// of an incomplete store is completed with
/// [`Analyzer::fold_committed_prefix`], after the last checkpoint write.
/// Takes the receiver by value, so returning early — on an error — drops
/// it and stops the reader.
fn fold(
    path: &Path,
    options: &FollowOptions,
    mut analyzer: Option<Analyzer>,
    events: Receiver<Result<Read>>,
    mut progress: impl FnMut(FollowProgress),
) -> Result<FollowOutcome> {
    let resumed_from = analyzer.as_ref().map(Analyzer::folded_pairs);
    let mut plan: Option<CollectionMeta> = None;
    let mut checkpointed = resumed_from.unwrap_or(0);
    // Whether the pass being read is the first or has read an event.
    let mut report = true;
    for read in events {
        let read = read?;
        report |= matches!(read, Read::Event(_));
        match read {
            Read::Event(TailEvent::Begin(meta)) => {
                if options.follow && meta.shard.is_some() {
                    return Err(StoreError::Plan(format!(
                        "{} is one shard of a sharded collection; merge the shards \
                         first, then follow the merged store",
                        path.display()
                    )));
                }
                check_platform(&meta, options.expect_platform)?;
                match &analyzer {
                    None => {
                        let fresh = Analyzer::new(meta.topics.clone());
                        analyzer = Some(match options.max_buffered {
                            Some(cap) => fresh.with_max_buffered(cap),
                            None => fresh,
                        });
                    }
                    Some(restored) if restored.topics() != meta.topics.as_slice() => {
                        return Err(StoreError::Plan(
                            "checkpoint was taken against a different collection \
                             plan; delete it or point --checkpoint elsewhere"
                                .into(),
                        ));
                    }
                    Some(_) => {}
                }
                plan = Some(meta);
            }
            Read::Event(TailEvent::Pair { snapshot, pair }) => {
                let analyzer = analyzer.as_mut().ok_or_else(|| {
                    StoreError::corrupt(0, "pair committed before the collection plan")
                })?;
                let topics = analyzer.topics();
                let pos = topics
                    .iter()
                    .position(|&t| t == pair.topic)
                    .ok_or_else(|| {
                        StoreError::Plan(format!(
                            "committed topic {:?} is not in the plan",
                            pair.topic
                        ))
                    })?;
                let plan_idx = snapshot as u64 * topics.len() as u64 + pos as u64;
                analyzer
                    .offer(plan_idx, pair)
                    .map_err(|e| StoreError::Plan(e.to_string()))?;
            }
            Read::Event(TailEvent::End {
                channels,
                quota_final_delta,
            }) => analyzer
                .as_mut()
                .ok_or_else(|| {
                    StoreError::corrupt(0, "collection ended before the collection plan")
                })?
                .end(channels, quota_final_delta),
            Read::CaughtUp => {
                let (folded, ended) = analyzer
                    .as_ref()
                    .map_or((0, false), |a| (a.folded_pairs(), a.ended()));
                if let (Some(ckpt_path), Some(analyzer)) = (&options.checkpoint, &analyzer) {
                    if checkpoint_due(folded, checkpointed) {
                        write_checkpoint(ckpt_path, &analyzer.encode_state())?;
                        checkpointed = folded;
                    }
                }
                if std::mem::take(&mut report) {
                    progress(FollowProgress {
                        folded_pairs: folded,
                        planned_pairs: plan.as_ref().map(CollectionMeta::pairs),
                        ended,
                    });
                }
            }
        }
    }
    let (Some(plan), Some(mut analyzer)) = (plan, analyzer) else {
        return Err(StoreError::Plan("store holds no collection".into()));
    };
    let folded_pairs = analyzer.folded_pairs();
    analyzer.fold_committed_prefix(&plan.dates);
    Ok(FollowOutcome {
        report: analyzer.finish(),
        folded_pairs,
        peak_buffered: analyzer.peak_buffered(),
        resumed_from,
    })
}

/// Fails with [`StoreError::PlatformMismatch`] when `expected` is set
/// and the plan records another platform.
fn check_platform(meta: &CollectionMeta, expected: Option<PlatformKind>) -> Result<()> {
    match expected {
        Some(requested) if meta.platform != requested => Err(StoreError::PlatformMismatch {
            stored: meta.platform,
            requested,
        }),
        _ => Ok(()),
    }
}

/// Atomically replaces the checkpoint at `path`: the bytes are written
/// to a tmp sibling and fsynced, then renamed over the original and the
/// directory synced — a crash at any point leaves either the old
/// checkpoint or the new one, never a torn mix. The
/// `stats.pre-checkpoint` faultpoint sits at the kill boundary between
/// the durable tmp and the rename.
fn write_checkpoint(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = sibling_with_suffix(path, ".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    if faultpoint::should_trip("stats.pre-checkpoint") {
        return Err(StoreError::Io(std::io::Error::other(
            "injected crash: stats.pre-checkpoint",
        )));
    }
    std::fs::rename(&tmp, path)?;
    fsync_dir_of(path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::tempdir::TempDir;
    use ytaudit_core::collect::TopicCommit;
    use ytaudit_core::dataset::{HourlyResult, TopicSnapshot};
    use ytaudit_core::streaming::Analyzer;
    use ytaudit_types::{PlatformKind, Timestamp, Topic, VideoId};

    fn meta2x3() -> CollectionMeta {
        CollectionMeta {
            topics: vec![Topic::Higgs, Topic::Blm],
            dates: (0..3)
                .map(|i| Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(i * 5))
                .collect(),
            hourly_bins: true,
            fetch_metadata: false,
            fetch_channels: false,
            fetch_comments: false,
            shard: None,
            platform: PlatformKind::Youtube,
        }
    }

    fn data(t_idx: usize, idx: usize) -> TopicSnapshot {
        let base = t_idx * 100 + idx * 3;
        TopicSnapshot {
            hours: vec![HourlyResult {
                hour: (idx * 7) as u32,
                video_ids: (base..base + 4)
                    .map(|n| VideoId::new(format!("vid-{n:04}")))
                    .collect(),
                total_results: 5_000 + base as u64,
            }],
            meta_returned: Vec::new(),
        }
    }

    fn fill(store: &mut Store, meta: &CollectionMeta) {
        store.begin_collection(meta.clone()).unwrap();
        for (idx, &date) in meta.dates.iter().enumerate() {
            for (t_idx, &topic) in meta.topics.iter().enumerate() {
                store
                    .commit_snapshot(&TopicCommit {
                        topic,
                        snapshot: idx,
                        date,
                        data: &data(t_idx, idx),
                        comments: None,
                        videos: &[],
                        quota_delta: 11,
                    })
                    .unwrap();
            }
        }
        store.finish_collection(&[], 4).unwrap();
    }

    /// A one-shot read: batch `analyze --store`.
    fn batch(path: &Path, expect_platform: Option<PlatformKind>) -> Result<FollowOutcome> {
        follow_analyze(
            path,
            &FollowOptions {
                follow: false,
                expect_platform,
                ..FollowOptions::default()
            },
            |_| {},
        )
    }

    /// The report of the store's materialized dataset, read without
    /// recovering (truncating) a torn tail.
    fn dataset_json(path: &Path) -> String {
        Analyzer::analyze_dataset(&crate::tail::read_dataset(path).unwrap()).to_json()
    }

    #[test]
    fn one_shot_follow_of_a_complete_store_matches_batch() {
        let dir = TempDir::new("follow-oneshot");
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        fill(&mut store, &meta);
        let dataset = store.load_dataset().unwrap();
        let batch = Analyzer::analyze_dataset(&dataset);

        let mut polls = 0;
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                ..FollowOptions::default()
            },
            |_| polls += 1,
        )
        .unwrap();
        assert_eq!(outcome.folded_pairs, 6);
        // Progress is reported once per pass: once for a one-shot read.
        assert_eq!(polls, 1);
        assert!(outcome.resumed_from.is_none());
        assert_eq!(outcome.report.to_json(), batch.to_json());
        // Sequential commits arrive in plan order: at most one pair is
        // ever buffered.
        assert!(outcome.peak_buffered <= 1, "{}", outcome.peak_buffered);
    }

    /// Batch analysis folds pairs as they are read, yet matches the
    /// materialized dataset's report also when pairs are missing (a
    /// snapshot with some topics, a snapshot with none) or were committed
    /// out of plan order.
    #[test]
    fn batch_analysis_matches_the_materialized_dataset() {
        let meta = meta2x3();
        let plans: [&[(usize, usize)]; 4] = [
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)],
            &[(0, 0), (0, 1), (1, 1), (2, 0)],
            &[(0, 1), (2, 0), (2, 1)],
            &[(2, 1), (0, 0), (1, 0)],
        ];
        for (i, commits) in plans.into_iter().enumerate() {
            let dir = TempDir::new("follow-batch");
            let path = dir.file("audit.yts");
            let mut store = Store::create(&path).unwrap();
            store.begin_collection(meta.clone()).unwrap();
            for &(snapshot, t_idx) in commits {
                store
                    .commit_snapshot(&TopicCommit {
                        topic: meta.topics[t_idx],
                        snapshot,
                        date: meta.dates[snapshot],
                        data: &data(t_idx, snapshot),
                        comments: None,
                        videos: &[],
                        quota_delta: 11,
                    })
                    .unwrap();
            }
            let batch = Analyzer::analyze_dataset(&store.load_dataset().unwrap());
            let streamed = self::batch(&path, None).unwrap().report;
            assert_eq!(streamed.to_json(), batch.to_json(), "plan {i}");
        }
    }

    #[test]
    fn batch_analysis_checks_the_platform_before_any_pair() {
        let dir = TempDir::new("follow-batch-platform");
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        fill(&mut store, &meta);
        assert!(batch(&path, Some(PlatformKind::Youtube)).is_ok());
        assert!(matches!(
            batch(&path, Some(PlatformKind::Tiktok)),
            Err(StoreError::PlatformMismatch { .. })
        ));
    }

    /// A complete 2-topic store over `dates` snapshots, for the
    /// pipelined-read tests.
    fn filled_store(dir: &TempDir, dates: i64) -> PathBuf {
        let path = dir.file("audit.yts");
        let meta = CollectionMeta {
            dates: (0..dates)
                .map(|i| Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(i))
                .collect(),
            ..meta2x3()
        };
        fill(&mut Store::create(&path).unwrap(), &meta);
        path
    }

    /// Flips one byte three quarters into the file: a damaged frame with
    /// every byte present, well after the Begin record.
    fn damage_interior(path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let at = bytes.len() * 3 / 4;
        bytes[at] ^= 0x5A;
        std::fs::write(path, bytes).unwrap();
    }

    /// The reader thread reports interior damage with the same error and
    /// offset as a sequential one-shot read.
    #[test]
    fn pipelined_read_reports_interior_damage_like_a_sequential_read() {
        let dir = TempDir::new("follow-pipe-damage");
        let path = filled_store(&dir, 12);
        damage_interior(&path);
        let sequential = crate::tail::read_dataset(&path).unwrap_err();
        let pipelined = batch(&path, None).unwrap_err();
        assert!(
            matches!(pipelined, StoreError::Corrupt { .. }),
            "{pipelined:?}"
        );
        // The message carries the offset and the frame's failure.
        assert_eq!(pipelined.to_string(), sequential.to_string());
    }

    /// A torn tail ends the read; the report covers the committed prefix.
    #[test]
    fn pipelined_read_of_a_torn_tail_reports_the_committed_prefix() {
        let dir = TempDir::new("follow-pipe-torn");
        let path = filled_store(&dir, 6);
        let bytes = std::fs::read(&path).unwrap();
        // Cut the last 40 bytes, mid-frame: nothing past the tear is
        // committed.
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        let report = batch(&path, None).unwrap().report;
        let committed = Store::open(&path).unwrap().load_dataset().unwrap();
        assert!(committed.len() >= 5, "{} snapshots", committed.len());
        assert_eq!(
            report.to_json(),
            Analyzer::analyze_dataset(&committed).to_json()
        );
    }

    /// The platform check runs on the Begin record: a mismatch wins over
    /// damage later in the file, which the reader may already have hit.
    #[test]
    fn pipelined_read_checks_the_platform_before_any_pair() {
        let dir = TempDir::new("follow-pipe-platform");
        let path = filled_store(&dir, 12);
        damage_interior(&path);
        assert!(matches!(
            batch(&path, Some(PlatformKind::Tiktok)),
            Err(StoreError::PlatformMismatch { .. })
        ));
    }

    /// When the fold fails early the reader stops at its next send instead
    /// of reading the rest of the store: it reads at most a full channel
    /// and the one event it failed to send beyond what was received, and
    /// the call returns with the thread joined.
    #[test]
    fn an_early_fold_error_stops_the_reader() {
        let dir = TempDir::new("follow-pipe-stop");
        let path = filled_store(&dir, 40);
        let events = 2 + 2 * 40;
        let (tx, rx) = std::sync::mpsc::sync_channel(READ_AHEAD);
        let (_stop, stopped) = std::sync::mpsc::channel();
        let reader = TailReader::open(&path).unwrap();
        let read = std::thread::scope(|scope| {
            let reading = scope.spawn(move || read_store(reader, None, &tx, &stopped));
            assert!(matches!(
                rx.recv(),
                Ok(Ok(Read::Event(TailEvent::Begin(_))))
            ));
            drop(rx);
            reading.join().expect("the reader thread panicked")
        });
        assert!(
            read <= 2 + READ_AHEAD as u64,
            "{read} of {events} events read"
        );
        assert!(matches!(
            batch(&path, Some(PlatformKind::Tiktok)),
            Err(StoreError::PlatformMismatch { .. })
        ));
    }

    /// A follow stops once it has read the end record: on a complete
    /// store it returns without sleeping a single poll interval.
    #[test]
    fn follow_of_a_complete_store_returns_without_waiting_a_poll() {
        let dir = TempDir::new("follow-complete-fast");
        let path = filled_store(&dir, 4);
        let started = std::time::Instant::now();
        let mut polls = 0;
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: true,
                poll_ms: 60_000,
                ..FollowOptions::default()
            },
            |_| polls += 1,
        )
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
        assert_eq!(polls, 1);
        assert_eq!(outcome.folded_pairs, 8);
        assert_eq!(outcome.report.to_json(), dataset_json(&path));
    }

    /// A fold error while following an incomplete store stops the reader:
    /// the call returns long before the poll interval ends, with the
    /// reader thread joined. A platform mismatch fails on the Begin
    /// record, usually while the reader is still reading; a checkpoint
    /// that cannot be written fails after a pass, once the reader has
    /// gone to wait out its interval, so the fold must wake it.
    #[test]
    fn a_platform_mismatch_in_follow_mode_stops_the_reader() {
        let dir = TempDir::new("follow-platform-stop");
        let path = partial_store(&dir, &[(0, 0)]);
        let follow = FollowOptions {
            follow: true,
            poll_ms: 60_000,
            ..FollowOptions::default()
        };
        let cases = [
            FollowOptions {
                expect_platform: Some(PlatformKind::Tiktok),
                ..follow.clone()
            },
            FollowOptions {
                checkpoint: Some(dir.file("missing").join("analyze.ckpt")),
                ..follow
            },
        ];
        for options in cases {
            let started = std::time::Instant::now();
            let err = follow_analyze(&path, &options, |_| {});
            assert!(
                matches!(
                    err,
                    Err(StoreError::PlatformMismatch { .. } | StoreError::Io(_))
                ),
                "{err:?}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{:?}",
                started.elapsed()
            );
        }
    }

    /// A shard store never gets an end record, so following one would
    /// wait forever: follow refuses it. A one-shot read analyzes it.
    #[test]
    fn shard_stores_are_refused_by_follow() {
        let dir = TempDir::new("follow-shard");
        let path = dir.file("shard.yts");
        let mut store = Store::create(&path).unwrap();
        store
            .begin_collection(CollectionMeta {
                shard: Some(ytaudit_core::shard::ShardSpec {
                    index: 0,
                    count: 2,
                    parent_topics: vec![Topic::Higgs],
                    parent_fetch_channels: false,
                }),
                ..meta2x3()
            })
            .unwrap();
        drop(store);
        let err = follow_analyze(
            &path,
            &FollowOptions {
                follow: true,
                poll_ms: 60_000,
                ..FollowOptions::default()
            },
            |_| {},
        );
        assert!(matches!(err, Err(StoreError::Plan(_))), "{err:?}");
        assert_eq!(
            batch(&path, None).unwrap().report.to_json(),
            dataset_json(&path)
        );
    }

    /// A one-shot read of a store with a half-committed snapshot reports
    /// the committed prefix, with the missing topic folded as an empty
    /// pair; its checkpoint holds only the committed pair.
    #[test]
    fn one_shot_follow_of_an_incomplete_store_reports_the_committed_prefix() {
        let dir = TempDir::new("follow-incomplete");
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        store.begin_collection(meta.clone()).unwrap();
        store
            .commit_snapshot(&TopicCommit {
                topic: Topic::Higgs,
                snapshot: 0,
                date: meta.dates[0],
                data: &data(0, 0),
                comments: None,
                videos: &[],
                quota_delta: 11,
            })
            .unwrap();
        let ckpt = dir.file("analyze.ckpt");
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt.clone()),
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.folded_pairs, 1);
        assert_eq!(outcome.report.to_json(), dataset_json(&path));
        assert_eq!(outcome.report.n_snapshots, 1);
        let checkpoint = Analyzer::decode_state(&std::fs::read(&ckpt).unwrap()).unwrap();
        assert_eq!(checkpoint.folded_pairs(), 1);
    }

    /// Commits `(snapshot, topic position)` pairs of [`meta2x3`] to a
    /// fresh store that never finishes.
    fn partial_store(dir: &TempDir, commits: &[(usize, usize)]) -> PathBuf {
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        store.begin_collection(meta.clone()).unwrap();
        for &(snapshot, t_idx) in commits {
            store
                .commit_snapshot(&TopicCommit {
                    topic: meta.topics[t_idx],
                    snapshot,
                    date: meta.dates[snapshot],
                    data: &data(t_idx, snapshot),
                    comments: None,
                    videos: &[],
                    quota_delta: 11,
                })
                .unwrap();
        }
        path
    }

    /// Snapshots 0 and 2 committed, 1 missing: the report skips snapshot
    /// 1, and the checkpoint stops at the gap, before snapshot 2.
    #[test]
    fn one_shot_read_skips_a_snapshot_with_no_committed_pair() {
        let dir = TempDir::new("follow-skip");
        let path = partial_store(&dir, &[(0, 0), (0, 1), (2, 0), (2, 1)]);
        let ckpt = dir.file("analyze.ckpt");
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt.clone()),
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(outcome.report.n_snapshots, 2);
        assert_eq!(outcome.report.to_json(), dataset_json(&path));
        assert_eq!(outcome.folded_pairs, 2);
        // Snapshot 2 waits behind the gap until the read ends.
        assert_eq!(outcome.peak_buffered, 2);
        let checkpoint = Analyzer::decode_state(&std::fs::read(&ckpt).unwrap()).unwrap();
        assert_eq!(checkpoint.folded_pairs(), 2);
    }

    /// The last snapshot half committed: its missing topic folds as an
    /// empty pair.
    #[test]
    fn one_shot_read_completes_a_half_committed_last_snapshot() {
        let dir = TempDir::new("follow-half");
        let path = partial_store(&dir, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]);
        let outcome = batch(&path, None).unwrap();
        assert_eq!(outcome.report.n_snapshots, 3);
        assert_eq!(outcome.folded_pairs, 5);
        assert_eq!(outcome.report.to_json(), dataset_json(&path));
    }

    #[test]
    fn checkpoint_crash_resume_converges_on_the_batch_report() {
        let dir = TempDir::new("follow-ckpt");
        let path = dir.file("audit.yts");
        let ckpt = dir.file("analyze.ckpt");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        fill(&mut store, &meta);
        let batch = Analyzer::analyze_dataset(&store.load_dataset().unwrap());

        // First run dies at the checkpoint kill boundary: the tmp is
        // durable but never installed, so the previous checkpoint (here:
        // none) is what a restart sees.
        faultpoint::arm("stats.pre-checkpoint", 1);
        let crashed = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt.clone()),
                ..FollowOptions::default()
            },
            |_| {},
        );
        faultpoint::reset();
        assert!(crashed.is_err(), "armed checkpoint must trip");
        assert!(!ckpt.exists(), "the crash landed before the rename");

        // The restart starts from scratch (no checkpoint installed),
        // re-reads the log, and matches batch.
        let outcome = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt.clone()),
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert!(outcome.resumed_from.is_none());
        assert_eq!(outcome.report.to_json(), batch.to_json());
        assert!(ckpt.exists(), "a clean pass installs its checkpoint");

        // And a run resuming from the installed checkpoint folds nothing
        // new yet still reproduces the same report.
        let resumed = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt),
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, Some(6));
        assert_eq!(resumed.report.to_json(), batch.to_json());
    }

    #[test]
    fn checkpoint_from_another_plan_is_rejected() {
        let dir = TempDir::new("follow-ckpt-plan");
        let ckpt = dir.file("analyze.ckpt");
        // A checkpoint taken over a different topic set…
        let other = Analyzer::new(vec![Topic::WorldCup]);
        std::fs::write(&ckpt, other.encode_state()).unwrap();
        // …must not silently fold this store's pairs.
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        fill(&mut store, &meta);
        let err = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt),
                ..FollowOptions::default()
            },
            |_| {},
        );
        assert!(matches!(err, Err(StoreError::Plan(_))), "{err:?}");
    }

    #[test]
    fn progress_reports_the_plan_and_the_fold_watermark() {
        let dir = TempDir::new("follow-progress");
        let path = dir.file("audit.yts");
        let meta = meta2x3();
        let mut store = Store::create(&path).unwrap();
        fill(&mut store, &meta);
        let mut last = None;
        follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                ..FollowOptions::default()
            },
            |p| last = Some(p),
        )
        .unwrap();
        assert_eq!(
            last,
            Some(FollowProgress {
                folded_pairs: 6,
                planned_pairs: Some(6),
                ended: true,
            })
        );
    }

    #[test]
    fn the_wait_resets_after_an_advance_and_doubles_to_the_cap_when_idle() {
        let ms = Duration::from_millis;
        let cap = ms(50);
        let mut wait = Duration::ZERO;
        let idle: Vec<u128> = (0..8)
            .map(|_| {
                wait = next_wait(wait, false, cap);
                wait.as_millis()
            })
            .collect();
        assert_eq!(idle, [1, 2, 4, 8, 16, 32, 50, 50]);
        assert_eq!(next_wait(cap, true, cap), Duration::ZERO);
        assert_eq!(next_wait(Duration::ZERO, false, cap), ms(1));
        // A cap under the first wait is read as the first wait: an idle
        // reader never spins.
        assert_eq!(next_wait(Duration::ZERO, false, Duration::ZERO), ms(1));
        assert_eq!(next_wait(ms(1), false, Duration::ZERO), ms(1));
        assert_eq!(next_wait(ms(40), false, ms(60_000)), ms(80));
    }

    #[test]
    fn checkpoints_fall_due_at_doubling_watermarks() {
        let mut last = 0;
        let due: Vec<u64> = (0..=40)
            .filter(|&folded| {
                let due = checkpoint_due(folded, last);
                if due {
                    last = folded;
                }
                due
            })
            .collect();
        assert_eq!(due, [1, 2, 4, 8, 16, 32]);
        // A pass that folded nothing new never writes.
        assert!(!checkpoint_due(6, 6));
        // Several pairs per pass: due once the pairs since the last write
        // reach the count it held.
        assert!(!checkpoint_due(5, 3));
        assert!(checkpoint_due(6, 3));
        assert!(checkpoint_due(9, 3));
    }

    /// A follow that reads one pair per pass of a 12-pair plan reports
    /// progress once per pass that read an event, checkpoints at fold
    /// watermarks 1, 2, 4 and 8, and writes nothing for the last four
    /// pairs or the end record. A restart resumes from 8 and reports the
    /// batch bytes.
    #[test]
    fn a_pair_per_pass_follow_checkpoints_at_doubling_watermarks() {
        let dir = TempDir::new("follow-doubling");
        let path = dir.file("audit.yts");
        let ckpt = dir.file("analyze.ckpt");
        let meta = CollectionMeta {
            dates: (0..6)
                .map(|i| Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(i))
                .collect(),
            ..meta2x3()
        };
        let mut store = Store::create(&path).unwrap();
        store.begin_collection(meta.clone()).unwrap();
        let options = FollowOptions {
            follow: true,
            poll_ms: 5,
            checkpoint: Some(ckpt.clone()),
            ..FollowOptions::default()
        };
        let mut reported = Vec::new();
        let outcome = std::thread::scope(|scope| {
            let (folded_tx, folded) = std::sync::mpsc::channel();
            scope.spawn(move || {
                // Commit the next pair, and the end record, only once the
                // fold has reported all before it, so every pass after the
                // first reads one event.
                let mut committed = 0;
                let wait_for_fold = |pairs| folded.iter().any(|f| f == pairs);
                for (idx, &date) in meta.dates.iter().enumerate() {
                    for (t_idx, &topic) in meta.topics.iter().enumerate() {
                        if !wait_for_fold(committed) {
                            return;
                        }
                        store
                            .commit_snapshot(&TopicCommit {
                                topic,
                                snapshot: idx,
                                date,
                                data: &data(t_idx, idx),
                                comments: None,
                                videos: &[],
                                quota_delta: 11,
                            })
                            .unwrap();
                        committed += 1;
                    }
                }
                if wait_for_fold(committed) {
                    store.finish_collection(&[], 4).unwrap();
                }
            });
            follow_analyze(&path, &options, |p| {
                reported.push(p.folded_pairs);
                let _ = folded_tx.send(p.folded_pairs);
            })
        })
        .unwrap();
        assert_eq!(outcome.folded_pairs, 12);
        // The first pass read the plan, each later one a pair, the last
        // the end record.
        let passes: Vec<u64> = (0..=12).chain([12]).collect();
        assert_eq!(reported, passes);
        let batch = batch(&path, None).unwrap().report.to_json();
        assert_eq!(outcome.report.to_json(), batch);
        let checkpoint = Analyzer::decode_state(&std::fs::read(&ckpt).unwrap()).unwrap();
        assert_eq!(checkpoint.folded_pairs(), 8);

        let resumed = follow_analyze(
            &path,
            &FollowOptions {
                follow: false,
                checkpoint: Some(ckpt),
                ..FollowOptions::default()
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(resumed.resumed_from, Some(8));
        assert_eq!(resumed.folded_pairs, 12);
        assert_eq!(resumed.report.to_json(), batch);
    }
}
