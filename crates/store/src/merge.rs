//! Deterministic merge/compact of shard stores into one canonical
//! store.
//!
//! A `coordinate --shards N` run produces `N` topic-shard stores (each a
//! complete collection over its topic subset, channels off) plus one
//! *finish* store holding only the end-of-collection channel metadata.
//! [`merge_shards`] folds them back into a single `.yts` by
//! re-committing every `(topic, snapshot)` pair in *parent plan order*
//! (snapshot-major, then the parent topic order) into a fresh store —
//! the exact order and dedup behaviour of a single-sink run — then
//! replaying the finish store's channels and end record. The output is
//! therefore byte-identical to what a single-sink `collect` writes.
//!
//! Durability follows the store's own WAL discipline: the merge writes
//! into a `.merging` sibling, commits pair by pair (each commit
//! fsynced), and only renames over the destination once the file is
//! complete and the directory synced. The shards are only read: each
//! through one sequential pass of the store's reader, taken pair by pair
//! in parent plan order. A crashed merge is resumed by
//! reopening the tmp with [`Store::open_rollback`], which truncates any
//! uncommitted orphan frames so the resumed byte stream continues
//! exactly where a crash-free writer would have been.

use crate::error::{Result, StoreError};
use crate::records::CollectionMeta;
use crate::store::{fsync_dir_of, sibling_with_suffix, Store};
use crate::tail::PairSource;
use std::path::{Path, PathBuf};
use ytaudit_core::shard::ShardSpec;
use ytaudit_platform::faultpoint;
use ytaudit_types::Topic;

/// What a merge did, for `ytaudit store merge` reporting.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// Pairs the parent plan calls for.
    pub pairs_total: usize,
    /// Pairs re-committed by this invocation (fewer than `pairs_total`
    /// when resuming a crashed merge).
    pub pairs_merged: usize,
    /// Whether a partially written merge was picked up and continued.
    pub resumed: bool,
    /// Size of the merged log, in bytes.
    pub bytes: u64,
}

fn dest_with_tag(dest: &Path, tag: &str) -> PathBuf {
    let stem = dest.file_stem().and_then(|s| s.to_str()).unwrap_or("store");
    let ext = dest.extension().and_then(|s| s.to_str()).unwrap_or("yts");
    dest.with_file_name(format!("{stem}.{tag}.{ext}"))
}

/// The canonical path for topic shard `index` of a run whose merged
/// output will live at `dest`: named after the topic when the shard owns
/// exactly one (`audit.shard-higgs.yts`), by index otherwise
/// (`audit.shard-0.yts`).
pub fn shard_store_path(dest: &Path, index: usize, topics: &[Topic]) -> PathBuf {
    match topics {
        [only] => dest_with_tag(dest, &format!("shard-{}", only.key())),
        _ => dest_with_tag(dest, &format!("shard-{index}")),
    }
}

/// The canonical path for the finish (channels-only) store of a run
/// whose merged output will live at `dest`.
pub fn finish_store_path(dest: &Path) -> PathBuf {
    dest_with_tag(dest, "channels")
}

/// Finds the shard stores belonging to `dest` by their canonical names
/// (`<stem>.shard-*.<ext>` plus `<stem>.channels.<ext>`), sorted for a
/// deterministic open order. Identity is still validated from the shard
/// specs stored in each file — the names are only discovery.
pub fn discover_shard_paths(dest: &Path) -> Result<Vec<PathBuf>> {
    let dir = dest
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or_else(|| Path::new("."));
    discover_shard_paths_in(dest, dir)
}

/// Like [`discover_shard_paths`], but scanning `dir` instead of the
/// directory `dest` lives in — for shard sets staged somewhere else
/// (a worker's scratch directory, a download area) before the merge.
pub fn discover_shard_paths_in(dest: &Path, dir: &Path) -> Result<Vec<PathBuf>> {
    let stem = dest.file_stem().and_then(|s| s.to_str()).unwrap_or("store");
    let ext = dest.extension().and_then(|s| s.to_str()).unwrap_or("yts");
    let shard_prefix = format!("{stem}.shard-");
    let channels_name = format!("{stem}.channels.{ext}");
    let suffix = format!(".{ext}");
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if (name.starts_with(&shard_prefix) && name.ends_with(&suffix)) || name == channels_name {
            paths.push(entry.path());
        }
    }
    if paths.is_empty() {
        return Err(StoreError::Plan(format!(
            "no shard stores named {shard_prefix}*{suffix} next to {}",
            dest.display()
        )));
    }
    paths.sort();
    Ok(paths)
}

struct ShardSet {
    parent: CollectionMeta,
    /// Topic shards slotted by shard index.
    topic_shards: Vec<PairSource>,
    finish: PairSource,
}

/// Opens and validates the shard stores, read-only: every store must be
/// complete, carry a shard spec, hold exactly the topics its spec assigns
/// it, and agree on the parent plan; together they must cover shard
/// indexes `0..count` plus the finish shard, each exactly once.
fn open_shard_set(shard_paths: &[PathBuf]) -> Result<ShardSet> {
    let mut parent: Option<CollectionMeta> = None;
    let mut topic_slots: Vec<Option<PairSource>> = Vec::new();
    let mut finish: Option<PairSource> = None;
    for path in shard_paths {
        let stats = Store::inspect(path)?;
        let mut source = PairSource::open(path)?;
        let plan_err = |detail: String| StoreError::Plan(format!("{}: {detail}", path.display()));
        let meta = source
            .collection_meta()?
            .ok_or_else(|| plan_err("store holds no collection".into()))?;
        let spec: ShardSpec = meta
            .shard
            .clone()
            .ok_or_else(|| plan_err("not a shard store (no shard spec in its manifest)".into()))?;
        if !stats.complete {
            return Err(plan_err(format!(
                "shard {}/{} is incomplete ({}/{} pairs); finish collecting before merging",
                spec.index,
                spec.count,
                stats.committed_pairs,
                meta.pairs()
            )));
        }
        if meta.topics != spec.expected_topics() {
            return Err(plan_err(format!(
                "shard {} holds topics {:?} but its spec assigns {:?}",
                spec.index,
                meta.topics,
                spec.expected_topics()
            )));
        }
        let this_parent = CollectionMeta {
            topics: spec.parent_topics.clone(),
            fetch_channels: spec.parent_fetch_channels,
            shard: None,
            ..meta.clone()
        };
        match &parent {
            None => {
                parent = Some(this_parent);
                topic_slots = (0..spec.count).map(|_| None).collect();
            }
            Some(existing) if existing.platform != this_parent.platform => {
                return Err(StoreError::PlatformMismatch {
                    stored: existing.platform,
                    requested: this_parent.platform,
                });
            }
            Some(existing) if *existing != this_parent => {
                return Err(plan_err(
                    "shard belongs to a different parent plan than the other shards".into(),
                ));
            }
            Some(_) => {}
        }
        let slot_taken = if spec.is_finish() {
            finish.replace(source).is_some()
        } else {
            match topic_slots.get_mut(spec.index) {
                Some(slot) => slot.replace(source).is_some(),
                None => {
                    return Err(plan_err(format!(
                        "shard index {} out of range for a {}-way split",
                        spec.index, spec.count
                    )));
                }
            }
        };
        if slot_taken {
            return Err(plan_err(format!(
                "two stores claim shard index {}",
                spec.index
            )));
        }
    }
    let parent = parent.ok_or_else(|| StoreError::Plan("no shard stores given".into()))?;
    let mut topic_shards = Vec::with_capacity(topic_slots.len());
    for (index, slot) in topic_slots.into_iter().enumerate() {
        topic_shards.push(slot.ok_or_else(|| {
            StoreError::Plan(format!(
                "shard index {index} is missing from the given stores"
            ))
        })?);
    }
    let finish = finish
        .ok_or_else(|| StoreError::Plan("the finish (channels) shard store is missing".into()))?;
    Ok(ShardSet {
        parent,
        topic_shards,
        finish,
    })
}

/// Merges the given shard stores into a canonical single store at
/// `dest`, byte-identical to a single-sink collection of the parent
/// plan. Each shard is read once, sequentially and read-only. Resumable:
/// if a previous merge crashed, its `.merging` tmp is rolled back to the
/// last durable record and continued; `dest` itself only ever appears
/// complete, via a final atomic rename.
pub fn merge_shards(dest: &Path, shard_paths: &[PathBuf]) -> Result<MergeReport> {
    if dest.exists() {
        return Err(StoreError::Plan(format!(
            "{} already exists; merging would overwrite it",
            dest.display()
        )));
    }
    let mut set = open_shard_set(shard_paths)?;
    let count = set.topic_shards.len();

    let tmp = sibling_with_suffix(dest, ".merging");
    let resumed = tmp.exists();
    let mut out = if resumed {
        Store::open_rollback(&tmp)?
    } else {
        Store::create(&tmp)?
    };
    out.begin_collection(set.parent.clone())?;

    let mut pairs_merged = 0;
    for snapshot in 0..set.parent.dates.len() {
        for (position, &topic) in set.parent.topics.iter().enumerate() {
            let owner = ShardSpec::owner_of(position, count);
            let shard = set
                .topic_shards
                .get_mut(owner)
                .ok_or_else(|| StoreError::Plan(format!("no shard at index {owner}")))?;
            let pair = shard.take(topic, snapshot)?;
            if out.has_commit(topic, snapshot) {
                continue;
            }
            out.commit_pair(snapshot, &pair)?;
            pairs_merged += 1;
        }
    }
    if !out.complete() {
        if faultpoint::should_trip("merge.pre-finish") {
            return Err(StoreError::Io(std::io::Error::other(
                "injected crash: merge.pre-finish",
            )));
        }
        let (channels, quota_final_delta) = set.finish.end()?;
        out.finish_collection(&channels, quota_final_delta)?;
    }
    let report = MergeReport {
        pairs_total: set.parent.pairs(),
        pairs_merged,
        resumed,
        bytes: out.stats().log_len,
    };
    drop(out);
    fsync_dir_of(&tmp)?;
    if faultpoint::should_trip("merge.pre-rename") {
        return Err(StoreError::Io(std::io::Error::other(
            "injected crash: merge.pre-rename",
        )));
    }
    std::fs::rename(&tmp, dest)?;
    fsync_dir_of(dest)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_paths_are_topic_named_when_singular() {
        let dest = Path::new("/data/audit.yts");
        assert_eq!(
            shard_store_path(dest, 0, &[Topic::Higgs]),
            Path::new("/data/audit.shard-higgs.yts")
        );
        assert_eq!(
            shard_store_path(dest, 2, &[Topic::Higgs, Topic::Blm]),
            Path::new("/data/audit.shard-2.yts")
        );
        assert_eq!(
            shard_store_path(dest, 1, &[]),
            Path::new("/data/audit.shard-1.yts")
        );
        assert_eq!(
            finish_store_path(dest),
            Path::new("/data/audit.channels.yts")
        );
    }

    #[test]
    fn discovery_requires_at_least_one_shard() {
        let dir = crate::tempdir::TempDir::new("merge-discover-empty");
        let dest = dir.file("audit.yts");
        assert!(matches!(
            discover_shard_paths(&dest),
            Err(StoreError::Plan(_))
        ));
    }

    #[test]
    fn discovery_finds_canonically_named_stores() {
        let dir = crate::tempdir::TempDir::new("merge-discover");
        let dest = dir.file("audit.yts");
        let a = shard_store_path(&dest, 0, &[Topic::Higgs]);
        let b = shard_store_path(&dest, 1, &[]);
        let c = finish_store_path(&dest);
        for p in [&a, &b, &c] {
            std::fs::write(p, b"x").unwrap();
        }
        // Unrelated files are not picked up.
        std::fs::write(dir.file("other.shard-0.yts"), b"x").unwrap();
        std::fs::write(dir.file("audit.shard-0.bak"), b"x").unwrap();
        let mut expected = vec![a, b, c];
        expected.sort();
        assert_eq!(discover_shard_paths(&dest).unwrap(), expected);
    }
}
