//! The analysis crash matrix: a follow (`analyze --follow --checkpoint`)
//! killed at its checkpoint boundary, and a follow pointed at a store
//! whose own writer died mid-frame, must both resume from the last
//! installed checkpoint and converge on the exact batch report.
//!
//! The kill site is the `stats.pre-checkpoint` faultpoint, which sits
//! between the durable checkpoint tmp and the rename that installs it —
//! the worst spot: work was folded and serialized, but the installed
//! checkpoint still describes the previous poll. The torn-store case
//! physically truncates a frame mid-write (the flushed-page-cache
//! outcome of a writer kill) and checks a one-shot read stops at the
//! tear with the committed prefix rather than misreads, then picks up
//! once the collector recovers the store.
//!
//! The faultpoint registry is process-global, so tests serialize on one
//! mutex and disarm on drop (same pattern as `merge_crash_matrix`).

mod store_harness;

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use store_harness as h;
use ytaudit::core::{Analyzer, CollectorSink};
use ytaudit::platform::faultpoint;
use ytaudit::store::{follow_analyze, FollowOptions, Store, StoreError, TailReader, TempDir};
use ytaudit::types::Topic;

static SERIAL: Mutex<()> = Mutex::new(());

struct FaultGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faultpoint::reset();
    }
}

fn exclusive() -> FaultGuard {
    let lock = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faultpoint::reset();
    FaultGuard { _lock: lock }
}

fn batch_json(path: &Path) -> String {
    let dataset = Store::open(path).unwrap().load_dataset().unwrap();
    Analyzer::analyze_dataset(&dataset).to_json()
}

/// The fold watermark of the checkpoint at `ckpt`.
fn checkpointed_pairs(ckpt: &Path) -> u64 {
    Analyzer::decode_state(&std::fs::read(ckpt).unwrap())
        .unwrap()
        .folded_pairs()
}

fn opts(ckpt: &Path) -> FollowOptions {
    FollowOptions {
        follow: false,
        checkpoint: Some(ckpt.to_path_buf()),
        ..FollowOptions::default()
    }
}

#[test]
fn crash_at_the_checkpoint_boundary_resumes_and_matches_batch() {
    let _guard = exclusive();
    let dir = TempDir::new("analyze-ckpt-crash");
    let path = dir.file("audit.yts");
    let ckpt = dir.file("analyze.ckpt");
    let cfg = h::plan(vec![Topic::Higgs, Topic::Blm], 3);
    let seed = 3;

    // Stage A: the collector has committed half the plan.
    let mut store = Store::create(&path).unwrap();
    CollectorSink::begin(&mut store, &cfg).unwrap();
    let dates = cfg.schedule.dates().to_vec();
    let mut committed = 0;
    'plan: for (snapshot, &date) in dates.iter().enumerate() {
        for &topic in &cfg.topics {
            h::commit_one(&mut store, &cfg, topic, snapshot, date, seed).unwrap();
            committed += 1;
            if committed == 3 {
                break 'plan;
            }
        }
    }

    // A one-shot follow of the incomplete store reports its committed
    // prefix — the batch report of that store — and leaves a checkpoint
    // holding the three folded pairs, without the empty pair that
    // completes snapshot 1 in the report.
    let early = follow_analyze(&path, &opts(&ckpt), |_| {}).unwrap();
    assert_eq!(early.folded_pairs, 3);
    assert_eq!(early.report.to_json(), batch_json(&path));
    assert!(ckpt.exists(), "partial progress must be checkpointed");
    assert_eq!(checkpointed_pairs(&ckpt), 3);

    // Stage B: the collection completes.
    h::commit_pairs(&mut store, &cfg, seed);
    CollectorSink::finish(&mut store, &h::channels(&cfg), h::finish_delta(&cfg)).unwrap();
    drop(store);

    // The follow that would finish the analysis dies at the kill
    // boundary: tmp durable, rename never ran.
    faultpoint::arm("stats.pre-checkpoint", 1);
    let crashed = follow_analyze(&path, &opts(&ckpt), |_| {});
    faultpoint::reset();
    match crashed {
        Err(StoreError::Io(e)) => assert!(e.to_string().contains("stats.pre-checkpoint")),
        other => panic!("expected the injected crash, got {other:?}"),
    }

    // Restart: resumes from the stage-A checkpoint (three pairs), folds
    // only the remainder, and lands on the batch report exactly.
    let outcome = follow_analyze(&path, &opts(&ckpt), |_| {}).unwrap();
    assert_eq!(outcome.resumed_from, Some(3));
    assert_eq!(outcome.folded_pairs, 6);
    assert_eq!(outcome.report.to_json(), batch_json(&path));
}

/// Satellite regression: a [`TailReader`] whose store is compacted in
/// place underneath it must fail with a typed error rather than serve
/// frames at pre-compaction offsets — `compact_in_place` renames a
/// rewritten log over the path, so every offset the stale reader holds
/// describes a file that is no longer there. Unix-only because the
/// detection compares `(dev, ino)` of the open handle against the path.
#[cfg(unix)]
#[test]
fn tail_reader_racing_in_place_compaction_errors_instead_of_misreading() {
    let _guard = exclusive();
    let dir = TempDir::new("analyze-compact-race");
    let path = dir.file("audit.yts");
    let cfg = h::plan(vec![Topic::Higgs, Topic::Blm], 3);
    let seed = 7;
    {
        let mut store = Store::create(&path).unwrap();
        h::commit_pairs(&mut store, &cfg, seed);
        CollectorSink::finish(&mut store, &h::channels(&cfg), h::finish_delta(&cfg)).unwrap();
    }

    // The reader drains the live log once…
    let mut reader = TailReader::open(&path).unwrap();
    let mut before = 0usize;
    reader
        .poll(|_| {
            before += 1;
            Ok(())
        })
        .unwrap();
    assert!(before > 0);

    // …then the store is compacted in place (rename over the path).
    Store::open(&path).unwrap().compact_in_place().unwrap();

    // The stale reader must fail typed — never stall forever, never
    // hand out frames read at the old file's offsets.
    let err = reader.poll(|_| Ok(())).unwrap_err();
    assert!(matches!(err, StoreError::Plan(_)), "{err:?}");
    assert!(err.to_string().contains("replaced"), "{err}");

    // A fresh reader on the compacted file serves the full collection.
    let mut fresh = TailReader::open(&path).unwrap();
    let mut after = 0usize;
    fresh
        .poll(|_| {
            after += 1;
            Ok(())
        })
        .unwrap();
    assert_eq!(
        after, before,
        "compaction of a complete store must keep every frame"
    );
}

#[test]
fn torn_store_tail_stalls_the_follow_and_resumes_after_recovery() {
    let _guard = exclusive();
    let dir = TempDir::new("analyze-torn-tail");
    let path = dir.file("audit.yts");
    let ckpt = dir.file("analyze.ckpt");
    let cfg = h::plan(vec![Topic::Higgs, Topic::Blm], 3);
    let seed = 5;

    // The collector dies mid-append on the final pair: five commits are
    // durable, the sixth tore.
    {
        let mut store = Store::create(&path).unwrap();
        CollectorSink::begin(&mut store, &cfg).unwrap();
        let dates = cfg.schedule.dates().to_vec();
        let mut committed = 0;
        'plan: for (snapshot, &date) in dates.iter().enumerate() {
            for &topic in &cfg.topics {
                h::commit_one(&mut store, &cfg, topic, snapshot, date, seed).unwrap();
                committed += 1;
                if committed == 5 {
                    break 'plan;
                }
            }
        }
    }
    let five_len = std::fs::metadata(&path).unwrap().len();
    {
        let mut store = Store::open(&path).unwrap();
        h::commit_pairs(&mut store, &cfg, seed);
        CollectorSink::finish(&mut store, &h::channels(&cfg), h::finish_delta(&cfg)).unwrap();
    }
    // Torn write: only 9 bytes of the sixth pair's first frame landed.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(five_len + 9).unwrap();
    file.sync_all().unwrap();
    drop(file);

    // The one-shot read stops at the tear — no error, no misread —
    // reports the committed prefix (the batch report of the torn store,
    // read without recovering it) and checkpoints the five pairs it
    // could fold.
    let stalled = follow_analyze(&path, &opts(&ckpt), |_| {}).unwrap();
    assert_eq!(stalled.folded_pairs, 5);
    let torn = ytaudit::store::read_dataset(&path).unwrap();
    assert_eq!(
        stalled.report.to_json(),
        Analyzer::analyze_dataset(&torn).to_json()
    );
    assert!(ckpt.exists());
    assert_eq!(checkpointed_pairs(&ckpt), 5);

    // The collector recovers: reopening truncates the torn tail, the
    // missing pair is re-committed, the collection finishes.
    {
        let mut store = Store::open(&path).unwrap();
        h::commit_pairs(&mut store, &cfg, seed);
        CollectorSink::finish(&mut store, &h::channels(&cfg), h::finish_delta(&cfg)).unwrap();
        assert!(store.complete());
    }

    // The restarted follow resumes from the checkpoint and matches the
    // batch analysis of the recovered store bit for bit.
    let outcome = follow_analyze(&path, &opts(&ckpt), |_| {}).unwrap();
    assert_eq!(outcome.resumed_from, Some(5));
    assert_eq!(outcome.folded_pairs, 6);
    assert_eq!(outcome.report.to_json(), batch_json(&path));
}
