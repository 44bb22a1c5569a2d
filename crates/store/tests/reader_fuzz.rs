//! Mutational fuzzing of the store's readers: store frames and records.
//!
//! Valid store images are damaged the ways real files get damaged, and
//! worse: bit flips, truncation, inflated frame lengths, payload edits
//! resealed with a fresh CRC (so huge counts and wrong offsets reach the
//! record decoder and the commit resolver), splices of two valid images
//! at frame boundaries, and replayed frames. Every reader entry point —
//! the one-shot dataset read, batch analysis, the tail poll, `inspect`
//! and `verify` — must return `Ok` or a typed `StoreError` for every
//! input: no panic, and no allocation sized by a length nobody checked.
//! The binary's global allocator records the largest single request,
//! which must stay within a small multiple of the input's size.
//!
//! The cases come from `ytaudit_types::kit`, so `YTAUDIT_PROP_SEED`
//! rotates them per commit; a failure names the seed and case, and the
//! test's stderr the value to reproduce with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use ytaudit_core::collect::TopicCommit;
use ytaudit_core::dataset::{
    ChannelInfo, CommentFetchError, CommentRecord, CommentsSnapshot, HourlyResult, TopicSnapshot,
    VideoInfo,
};
use ytaudit_store::crc::crc32;
use ytaudit_store::log::{self, FRAME_HEADER, MAX_RECORD};
use ytaudit_store::{
    follow_analyze, read_dataset, CollectionMeta, FollowOptions, Store, TailReader, TempDir,
};
use ytaudit_types::kit::{prop_seed, Rng};
use ytaudit_types::{ChannelId, PlatformKind, Timestamp, Topic, VideoId};

/// Passes every request to the system allocator, remembering the
/// largest one.
struct Tracking;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

fn vid(n: u32) -> VideoId {
    VideoId::new(format!("vid-{n:05}"))
}

/// A complete store over `topics × snapshots`, with metadata, comments
/// (one pair records a fetch error) and channels when `rich`.
fn build_image(
    path: &Path,
    topics: Vec<Topic>,
    snapshots: usize,
    rich: bool,
    salt: u32,
) -> Vec<u8> {
    let meta = CollectionMeta {
        topics,
        dates: (0..snapshots as i64)
            .map(|i| Timestamp::from_ymd(2025, 2, 9).unwrap().add_days(i * 5))
            .collect(),
        hourly_bins: true,
        fetch_metadata: rich,
        fetch_channels: rich,
        fetch_comments: rich,
        shard: None,
        platform: PlatformKind::Youtube,
    };
    let mut store = Store::create(path).unwrap();
    store.begin_collection(meta.clone()).unwrap();
    for (snapshot, &date) in meta.dates.iter().enumerate() {
        for (t, &topic) in meta.topics.iter().enumerate() {
            let base = salt + t as u32 * 50 + snapshot as u32 * 2;
            let data = TopicSnapshot {
                hours: (0..3)
                    .map(|hour| HourlyResult {
                        hour,
                        video_ids: (base + hour..base + hour + 3).map(vid).collect(),
                        total_results: 900 + u64::from(base),
                    })
                    .collect(),
                meta_returned: if rich { vec![vid(base)] } else { Vec::new() },
            };
            let videos: Vec<VideoInfo> = (base..base + 2)
                .map(|n| VideoInfo {
                    id: vid(n),
                    channel_id: ChannelId::new(format!("ch-{}", n % 3)),
                    published_at: date.add_days(-2),
                    duration_secs: 30 + u64::from(n),
                    is_sd: n.is_multiple_of(2),
                    views: u64::from(n) * 7,
                    likes: u64::from(n),
                    comments: 2,
                })
                .collect();
            let comments = CommentsSnapshot {
                comments: vec![CommentRecord {
                    id: format!("c-{base}"),
                    video_id: vid(base),
                    is_reply: snapshot == 1,
                    published_at: date,
                }],
                fetch_errors: if snapshot == 0 && t == 0 {
                    vec![CommentFetchError {
                        video_id: vid(base + 1),
                        error: "deleted".into(),
                    }]
                } else {
                    Vec::new()
                },
            };
            store
                .commit_snapshot(&TopicCommit {
                    topic,
                    snapshot,
                    date,
                    data: &data,
                    comments: rich.then_some(&comments),
                    videos: if rich { &videos } else { &[] },
                    quota_delta: 100 + u64::from(base),
                })
                .unwrap();
        }
    }
    let channels: Vec<ChannelInfo> = if rich {
        (0..3)
            .map(|n| ChannelInfo {
                id: ChannelId::new(format!("ch-{n}")),
                published_at: Timestamp::from_ymd(2019, 1, 1).unwrap(),
                views: 1_000,
                subscribers: 10,
                video_count: 3,
            })
            .collect()
    } else {
        Vec::new()
    };
    store.finish_collection(&channels, 9).unwrap();
    drop(store);
    std::fs::read(path).unwrap()
}

/// `(offset, payload length)` of every frame of a valid image.
fn frames(path: &Path) -> Vec<(usize, usize)> {
    let mut frames = Vec::new();
    log::scan(path, |offset, payload| {
        frames.push((offset as usize, payload.len()));
        Ok(())
    })
    .unwrap();
    frames
}

/// Rewrites the CRC of the frame at `offset` to match its payload.
fn reseal(image: &mut [u8], offset: usize, len: usize) {
    let start = offset + FRAME_HEADER as usize;
    let crc = crc32(&image[start..start + len]);
    image[offset + 4..offset + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One mutation of `image` (whose frames are `frames`), described.
fn mutate(
    rng: &mut Rng,
    image: &mut Vec<u8>,
    frames: &[(usize, usize)],
    other: &[u8],
    other_frames: &[(usize, usize)],
) -> String {
    let (offset, len) = frames[rng.below(frames.len() as u64) as usize];
    let payload = offset + FRAME_HEADER as usize;
    match rng.below(6) {
        0 => {
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let at = rng.below(image.len() as u64) as usize;
                image[at] ^= 1 << rng.below(8);
            }
            format!("{flips} bit flips")
        }
        1 => {
            let cut = rng.below((image.len() + 1) as u64) as usize;
            image.truncate(cut);
            format!("truncated to {cut} bytes")
        }
        2 => {
            let claimed = match rng.below(5) {
                0 => u32::MAX,
                1 => MAX_RECORD,
                2 => MAX_RECORD + 1,
                3 => (image.len() - payload) as u32 + rng.below(64) as u32,
                _ => len as u32 + 1 + rng.below(1 << 20) as u32,
            };
            image[offset..offset + 4].copy_from_slice(&claimed.to_le_bytes());
            format!("frame at {offset} claims {claimed} bytes")
        }
        3 if len >= 4 => {
            let at = payload + rng.below((len - 3) as u64) as usize;
            let count = match rng.below(4) {
                0 => u32::MAX,
                1 => 0x7FFF_FFFF,
                2 => len as u32,
                _ => rng.next() as u32,
            };
            image[at..at + 4].copy_from_slice(&count.to_le_bytes());
            reseal(image, offset, len);
            format!("resealed frame at {offset} with {count} written at {at}")
        }
        4 => {
            let flips = 1 + rng.below(3);
            for _ in 0..flips {
                image[payload + rng.below(len as u64) as usize] ^= 1 << rng.below(8);
            }
            reseal(image, offset, len);
            format!("resealed frame at {offset} with {flips} bit flips")
        }
        _ => {
            let (cut, _) = frames[rng.below(frames.len() as u64) as usize];
            let (from, _) = other_frames[rng.below(other_frames.len() as u64) as usize];
            if rng.below(3) == 0 {
                // Replay a frame of this image at the end.
                let frame = image[offset..payload + len].to_vec();
                image.extend_from_slice(&frame);
                format!("frame at {offset} replayed at the end")
            } else {
                image.truncate(cut);
                image.extend_from_slice(&other[from..]);
                format!("spliced at {cut} onto the other image from {from}")
            }
        }
    }
}

/// Runs every reader on the file at `path`; each returns a typed
/// result, so all this checks is that none panics.
fn read_every_way(path: &Path) {
    let _ = read_dataset(path);
    let one_shot = FollowOptions {
        follow: false,
        ..FollowOptions::default()
    };
    let _ = follow_analyze(path, &one_shot, |_| {});
    let _ = Store::inspect(path);
    let _ = Store::verify_path(path);
    if let Ok(mut reader) = TailReader::open(path) {
        for _ in 0..2 {
            if reader.poll(|_| Ok(())).is_err() {
                break;
            }
        }
    }
}

#[test]
fn mutated_store_images_give_typed_results_without_panics_or_huge_allocations() {
    let seed = prop_seed(0xF0_22ED);
    let dir = TempDir::new("reader-fuzz");
    let images = [
        build_image(
            &dir.file("a.yts"),
            vec![Topic::Higgs, Topic::Blm],
            2,
            true,
            0,
        ),
        build_image(&dir.file("b.yts"), vec![Topic::Brexit], 3, false, 7),
    ];
    let image_frames = [frames(&dir.file("a.yts")), frames(&dir.file("b.yts"))];
    let path = dir.file("mutated.yts");
    let mut rng = Rng::new(seed);
    for case in 0..400 {
        let pick = rng.below(2) as usize;
        let mut image = images[pick].clone();
        let mut steps = Vec::new();
        // A second mutation only follows one that kept every frame in
        // place, so the frame table still describes the image.
        for _ in 0..1 + rng.below(2) {
            steps.push(mutate(
                &mut rng,
                &mut image,
                &image_frames[pick],
                &images[1 - pick],
                &image_frames[1 - pick],
            ));
            if image.len() != images[pick].len() {
                break;
            }
        }
        std::fs::write(&path, &image).unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(|| read_every_way(&path));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            outcome.is_ok(),
            "seed {seed} case {case}: a reader panicked after {steps:?}"
        );
        let bound = 64 * image.len() + (64 << 10);
        assert!(
            largest <= bound,
            "seed {seed} case {case}: a {largest}-byte allocation for a {}-byte file \
             after {steps:?}",
            image.len()
        );
    }
}
