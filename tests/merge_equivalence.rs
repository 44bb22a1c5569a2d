//! Merge ≡ single sink: folding a shard set with `merge_shards` yields
//! a `.yts` file byte-identical to a single-sink collection of the same
//! plan, for any shard count — including degenerate splits with more
//! shards than topics — and any plan shape (seeded property test, no
//! ambient entropy). The shard sets come from the store harness, split
//! by `core::shard` exactly as `coordinate` splits a plan; the end-to-end
//! runs through real workers live in `dist_equivalence.rs`.

// Modulo-based flag derivations read better than `is_multiple_of` here
// (and the method needs a newer toolchain than rust-version pins).
#![allow(clippy::manual_is_multiple_of)]

mod store_harness;

use store_harness as h;
use ytaudit::core::CollectorConfig;
use ytaudit::store::{merge_shards, Store, TempDir};
use ytaudit::types::Topic;

/// The fixed property-test seed; CI rotates it via `YTAUDIT_PROP_SEED`
/// (see [`h::prop_seed`]).
const DEFAULT_PROP_SEED: u64 = 0x5EED_CAFE_D15C_0DE5;

/// A splitmix64 step — the suite's only entropy source, fully
/// determined by the seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn merge_is_byte_identical_for_shard_counts_one_through_eight() {
    let dir = TempDir::new("shard-equiv-counts");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm, Topic::Brexit], 2);
    let reference = h::build_reference(&dir.file("reference.yts"), &parent, 7);

    // Counts above the topic count produce empty shards, which must
    // merge away without a trace.
    for count in 1..=8usize {
        let dest = dir.file(&format!("merged-{count}.yts"));
        let shard_paths = h::build_shards(&dest, &parent, count, 7);
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert_eq!(report.pairs_total, 6, "count={count}");
        assert_eq!(report.pairs_merged, 6, "count={count}");
        assert!(!report.resumed, "count={count}");
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference,
            "merged bytes diverge from single-sink at count={count}"
        );
    }
}

#[test]
fn merged_store_passes_verification_and_loads_the_same_dataset() {
    let dir = TempDir::new("shard-equiv-verify");
    let parent = h::plan(vec![Topic::Grammys, Topic::Capitol], 2);
    h::build_reference(&dir.file("reference.yts"), &parent, 11);
    let dest = dir.file("merged.yts");
    let shard_paths = h::build_shards(&dest, &parent, 2, 11);
    merge_shards(&dest, &shard_paths).unwrap();

    let report = Store::verify_path(&dest).unwrap();
    assert!(report.ok(), "{report:?}");
    let merged = Store::open(&dest).unwrap();
    let reference = Store::open(&dir.file("reference.yts")).unwrap();
    assert_eq!(
        merged.load_dataset().unwrap(),
        reference.load_dataset().unwrap()
    );
}

/// Seeded property test over random plan shapes and shard counts:
/// `merge(shards(plan, N)) == single_sink(plan)` for plans varying in
/// topic set, snapshot count, and fetch flags, N in 1..=8.
#[test]
fn property_random_plans_merge_byte_identically() {
    let seed = h::prop_seed(DEFAULT_PROP_SEED);
    let dir = TempDir::new("shard-equiv-prop");
    let mut state = seed;
    for round in 0..6 {
        let n_topics = 1 + (next(&mut state) % 3) as usize;
        let start = (next(&mut state) % Topic::ALL.len() as u64) as usize;
        let topics: Vec<Topic> = (0..n_topics)
            .map(|i| Topic::ALL[(start + i * 2) % Topic::ALL.len()])
            .collect();
        let snapshots = 1 + (next(&mut state) % 2) as usize;
        let parent = CollectorConfig {
            fetch_metadata: next(&mut state) % 4 != 0,
            fetch_channels: next(&mut state) % 4 != 0,
            fetch_comments: next(&mut state) % 2 == 0,
            ..h::plan(topics, snapshots)
        };
        let count = 1 + (next(&mut state) % 8) as usize;
        let payload_seed = next(&mut state);
        let ctx = format!(
            "seed={seed:#x} round={round}: {:?} × {snapshots}, count={count}, \
             meta={} chan={} comm={}",
            parent.topics, parent.fetch_metadata, parent.fetch_channels, parent.fetch_comments
        );

        let reference = h::build_reference(
            &dir.file(&format!("ref-{round}.yts")),
            &parent,
            payload_seed,
        );
        let dest = dir.file(&format!("merged-{round}.yts"));
        let shard_paths = h::build_shards(&dest, &parent, count, payload_seed);
        let report = merge_shards(&dest, &shard_paths).unwrap();
        assert_eq!(report.pairs_total, parent.topics.len() * snapshots, "{ctx}");
        assert_eq!(
            std::fs::read(&dest).unwrap(),
            reference,
            "merged bytes diverge from single-sink ({ctx})"
        );
    }
}

/// Satellite regression: a shard set whose Begin manifests disagree —
/// on platform, or on any other parent-plan field — must fail `store
/// merge` with a typed [`StoreError`] *before* the `.merging` tmp file
/// is ever created, so a rejected merge leaves the directory exactly as
/// it found it.
#[test]
fn mismatched_shard_manifests_fail_typed_before_any_merge_tmp_exists() {
    use ytaudit::store::StoreError;
    use ytaudit::types::PlatformKind;

    fn assert_no_merge_residue(dir: &TempDir) {
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(
                !name.contains(".merging"),
                "rejected merge left tmp file {name}"
            );
        }
    }

    let dir = TempDir::new("shard-equiv-mixed");
    let parent = h::plan(vec![Topic::Higgs, Topic::Blm], 1);

    // A healthy two-shard YouTube set…
    let yt_paths = h::build_shards(&dir.file("merged.yts"), &parent, 2, 3);

    // …a same-shape set collected from the other platform…
    let tk_parent = CollectorConfig {
        platform: PlatformKind::Tiktok,
        ..parent.clone()
    };
    let tk_paths = h::build_shards(&dir.file("merged-tk.yts"), &tk_parent, 2, 3);

    // …and one whose plan differs in an ordinary field.
    let alt_parent = CollectorConfig {
        fetch_comments: false,
        ..parent.clone()
    };
    let alt_paths = h::build_shards(&dir.file("merged-alt.yts"), &alt_parent, 2, 5);

    // Mixing one TikTok shard into the YouTube set is a platform
    // mismatch, surfaced as the dedicated typed error.
    let out = dir.file("mixed.yts");
    let mixed = vec![
        yt_paths[0].clone(),
        tk_paths[1].clone(),
        yt_paths[2].clone(),
    ];
    let err = merge_shards(&out, &mixed).unwrap_err();
    assert!(
        matches!(err, StoreError::PlatformMismatch { .. }),
        "{err:?}"
    );
    assert!(!out.exists(), "no output may appear for a rejected merge");
    assert_no_merge_residue(&dir);

    // Same platform, different parent plan: the generic typed manifest
    // check fires, with the same nothing-written guarantee.
    let out2 = dir.file("mixed2.yts");
    let mixed2 = vec![
        yt_paths[0].clone(),
        alt_paths[1].clone(),
        yt_paths[2].clone(),
    ];
    let err2 = merge_shards(&out2, &mixed2).unwrap_err();
    assert!(matches!(err2, StoreError::Plan(_)), "{err2:?}");
    assert!(!out2.exists());
    assert_no_merge_residue(&dir);

    // The untouched YouTube set still merges cleanly afterwards.
    let good = dir.file("good.yts");
    merge_shards(&good, &yt_paths).unwrap();
    assert!(good.exists());
}
