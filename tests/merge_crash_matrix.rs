//! The merge crash matrix: a kill injected at every phase boundary of a
//! partitioned collection — mid-shard-commit, during a shard's finish,
//! pre-merge, at every mid-merge commit, mid-merge-finish, and
//! post-merge-pre-rename — must leave the run resumable, and the
//! resumed run's merged store must stay byte-identical to a crash-free
//! single-sink collection.
//!
//! Faults are injected through `ytaudit_platform::faultpoint`: the
//! armed site returns an error *before* the fsync it guards, so
//! everything already appended is still in the file (the flushed-page-
//! cache outcome of a real kill); the torn-write outcome is modeled by
//! physically truncating the tail afterwards. Both must converge.
//!
//! The faultpoint registry is process-global, so every test here
//! serializes on one mutex and disarms on drop.

mod store_harness;

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use store_harness as h;
use ytaudit::core::shard::shard_configs;
use ytaudit::core::CollectorSink;
use ytaudit::platform::faultpoint;
use ytaudit::store::{merge_shards, shard_store_path, Store, TempDir};
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

/// Takes the binary-wide fault lock and guarantees a clean registry on
/// entry and exit (even when the test panics mid-arm).
fn exclusive() -> FaultGuard {
    let lock = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    faultpoint::reset();
    FaultGuard { _lock: lock }
}

/// Models the torn-write outcome of a kill: the last `bytes` bytes of
/// the file never reached the disk.
fn tear(path: &Path, bytes: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len - bytes).unwrap();
    file.sync_all().unwrap();
}

fn merging_tmp(dest: &Path) -> PathBuf {
    PathBuf::from(format!("{}.merging", dest.display()))
}

#[test]
fn crash_mid_shard_commit_resumes_to_identical_merged_bytes() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-shard-commit");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 3);
    let dest = dir.file("merged.yts");

    // Shard 0 dies on its first commit: the Commit record reached the
    // file, the guarded fsync never ran, the process is gone.
    let cfg0 = shard_configs(&parent, 2).into_iter().next().unwrap();
    let path0 = shard_store_path(&dest, 0, &cfg0.topics);
    {
        let mut store = Store::create(&path0).unwrap();
        CollectorSink::begin(&mut store, &cfg0).unwrap();
        faultpoint::arm("store.commit", 1);
        let mut died = false;
        'plan: for (snapshot, &date) in cfg0.schedule.dates().iter().enumerate() {
            for &topic in &cfg0.topics {
                if h::commit_one(&mut store, &cfg0, topic, snapshot, date, 3).is_err() {
                    died = true;
                    break 'plan;
                }
            }
        }
        assert!(died, "fault point never tripped");
        faultpoint::reset();
    }

    // The restarted shard writer resumes: reopen the shard store, skip the
    // pairs already on disk, commit the rest, finish.
    {
        let mut store = Store::open_or_create(&path0).unwrap();
        h::commit_pairs(&mut store, &cfg0, 3);
        CollectorSink::finish(&mut store, &[], 0).unwrap();
        assert!(store.complete());
    }

    let shard_paths = vec![
        path0,
        h::build_topic_shard(&dest, &parent, 2, 1, 3),
        h::build_finish_shard(&dest, &parent, 2, 3),
    ];
    let report = merge_shards(&dest, &shard_paths).unwrap();
    assert_eq!(report.pairs_merged, 4);
    assert_eq!(std::fs::read(&dest).unwrap(), reference);
}

#[test]
fn torn_shard_tail_recovers_and_merges_identically() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-shard-torn");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 4);
    let dest = dir.file("merged.yts");

    let cfg0 = shard_configs(&parent, 2).into_iter().next().unwrap();
    let path0 = shard_store_path(&dest, 0, &cfg0.topics);
    {
        let mut store = Store::create(&path0).unwrap();
        h::commit_pairs(&mut store, &cfg0, 4);
    }
    // The kill landed mid-write: the shard's last frame is torn.
    tear(&path0, 3);
    {
        let mut store = Store::open_or_create(&path0).unwrap();
        assert!(store.recovered_bytes() > 0, "torn tail went unnoticed");
        // Resume re-commits the pair the torn frame lost.
        h::commit_pairs(&mut store, &cfg0, 4);
        CollectorSink::finish(&mut store, &[], 0).unwrap();
        assert!(store.complete());
    }

    let shard_paths = vec![
        path0,
        h::build_topic_shard(&dest, &parent, 2, 1, 4),
        h::build_finish_shard(&dest, &parent, 2, 4),
    ];
    merge_shards(&dest, &shard_paths).unwrap();
    assert_eq!(std::fs::read(&dest).unwrap(), reference);
}

#[test]
fn crash_during_shard_finish_resumes_to_identical_merged_bytes() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-shard-finish");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 9);
    let dest = dir.file("merged.yts");

    let cfg0 = shard_configs(&parent, 2).into_iter().next().unwrap();
    let path0 = shard_store_path(&dest, 0, &cfg0.topics);
    {
        let mut store = Store::create(&path0).unwrap();
        h::commit_pairs(&mut store, &cfg0, 9);
        faultpoint::arm("store.finish", 1);
        CollectorSink::finish(&mut store, &[], 0).unwrap_err();
        faultpoint::reset();
    }
    // The kill also tore the in-flight End frame; rollback discards it
    // and the resumed shard re-finishes.
    tear(&path0, 2);
    {
        let mut store = Store::open_or_create(&path0).unwrap();
        assert!(!store.complete());
        h::commit_pairs(&mut store, &cfg0, 9); // all already on disk
        CollectorSink::finish(&mut store, &[], 0).unwrap();
        assert!(store.complete());
    }

    let shard_paths = vec![
        path0,
        h::build_topic_shard(&dest, &parent, 2, 1, 9),
        h::build_finish_shard(&dest, &parent, 2, 9),
    ];
    merge_shards(&dest, &shard_paths).unwrap();
    assert_eq!(std::fs::read(&dest).unwrap(), reference);
}

/// The heart of the matrix: kill the merge at *every* commit boundary
/// (nth = 1 is effectively pre-merge — nothing but the manifest made it
/// to the tmp) and verify each resumed merge converges to the
/// single-sink bytes.
#[test]
fn merge_crash_at_every_commit_boundary_resumes_byte_identically() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-merge-matrix");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 5);
    let shard_paths = h::build_shards(&dir.file("shards.yts"), &parent, 2, 5);
    let pairs = 4usize;

    for nth in 1..=pairs {
        let dest = dir.file(&format!("merged-{nth}.yts"));
        faultpoint::arm("store.commit", nth as u64);
        let err = merge_shards(&dest, &shard_paths).unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "nth={nth}: {err}"
        );
        assert!(
            !dest.exists(),
            "nth={nth}: dest must not appear before the rename"
        );
        faultpoint::reset();

        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert!(report.resumed, "nth={nth}");
        assert_eq!(report.pairs_total, pairs, "nth={nth}");
        // The crashed commit's record reached the tmp file before the
        // kill, so it survives rollback; resume merges what follows.
        assert_eq!(report.pairs_merged, pairs - nth, "nth={nth}");
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference,
            "resumed merge diverges from single-sink at nth={nth}"
        );
    }
}

#[test]
fn merge_crash_with_torn_tmp_tail_rolls_back_and_resumes_byte_identically() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-merge-torn");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 6);
    let shard_paths = h::build_shards(&dir.file("shards.yts"), &parent, 2, 6);

    let dest = dir.file("merged.yts");
    faultpoint::arm("store.commit", 2);
    merge_shards(&dest, &shard_paths).unwrap_err();
    faultpoint::reset();

    // This kill also tore the in-flight Commit frame: the tmp ends
    // mid-record. Rollback must cut back to the last durable commit and
    // the resumed merge must re-commit the lost pair.
    let tmp = merging_tmp(&dest);
    assert!(tmp.exists(), "interrupted merge left no tmp");
    tear(&tmp, 5);

    let report = merge_shards(&dest, &shard_paths).unwrap();
    assert!(report.resumed);
    assert_eq!(report.pairs_merged, 3); // pair 1 survived; 2..4 redone
    assert_eq!(std::fs::read(&dest).unwrap(), reference);
}

#[test]
fn merge_crash_at_phase_boundaries_resumes_byte_identically() {
    let _guard = exclusive();
    let dir = TempDir::new("crash-merge-phases");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 8);
    let shard_paths = h::build_shards(&dir.file("shards.yts"), &parent, 2, 8);

    // Pre-finish: every pair merged, the channel fold never ran.
    {
        let dest = dir.file("merged-pre-finish.yts");
        faultpoint::arm("merge.pre-finish", 1);
        let err = merge_shards(&dest, &shard_paths).unwrap_err();
        assert!(err.to_string().contains("merge.pre-finish"), "{err}");
        faultpoint::reset();
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert!(report.resumed);
        assert_eq!(report.pairs_merged, 0);
        assert_eq!(std::fs::read(&dest).unwrap(), reference);
    }

    // Mid-finish: the End record reached the tmp, its fsync never ran.
    {
        let dest = dir.file("merged-mid-finish.yts");
        faultpoint::arm("store.finish", 1);
        let err = merge_shards(&dest, &shard_paths).unwrap_err();
        assert!(err.to_string().contains("store.finish"), "{err}");
        faultpoint::reset();
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert!(report.resumed);
        assert_eq!(std::fs::read(&dest).unwrap(), reference);
    }

    // Mid-finish with a torn End frame: rollback discards it and the
    // resumed merge re-runs the finish fold.
    {
        let dest = dir.file("merged-torn-finish.yts");
        faultpoint::arm("store.finish", 1);
        merge_shards(&dest, &shard_paths).unwrap_err();
        faultpoint::reset();
        tear(&merging_tmp(&dest), 3);
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert!(report.resumed);
        assert_eq!(std::fs::read(&dest).unwrap(), reference);
    }

    // Post-merge, pre-rename: the tmp is complete and durable; only the
    // rename into place is missing. Resume must publish it untouched.
    {
        let dest = dir.file("merged-pre-rename.yts");
        faultpoint::arm("merge.pre-rename", 1);
        let err = merge_shards(&dest, &shard_paths).unwrap_err();
        assert!(err.to_string().contains("merge.pre-rename"), "{err}");
        faultpoint::reset();
        let tmp = merging_tmp(&dest);
        assert!(tmp.exists() && !dest.exists());
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert!(report.resumed);
        assert_eq!(report.pairs_merged, 0);
        assert!(!tmp.exists() && dest.exists());
        assert_eq!(std::fs::read(&dest).unwrap(), reference);
    }
}
