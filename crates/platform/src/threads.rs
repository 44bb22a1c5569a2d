//! The comment-thread index, built once with the platform.
//!
//! Every video's top-level comments and every thread's replies are kept
//! as lists of corpus indices sorted by `(published_at, id)`. A request at
//! simulated instant `now` sees exactly the prefix of each list posted by
//! then, so `CommentThreads: list` and `Comments: list` slice instead of
//! regrouping the video's comments on every page.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use ytaudit_types::{Comment, CommentId, Timestamp, VideoId};

/// Comment IDs, threads per video, and replies per thread.
///
/// Threads are numbered in corpus video order, then by their top-level
/// comment's `(published_at, id)`. A reply belongs to the thread of the
/// top-level comment its ID names (`parent.child`), on the same video.
pub(crate) struct ThreadIndex {
    /// Each comment's index into `Corpus::comments`.
    by_id: HashMap<CommentId, u32>,
    /// Video `v`'s threads are `video_start[v]..video_start[v + 1]`.
    video_start: Vec<u32>,
    /// Each thread's top-level comment (a corpus index).
    tops: Vec<u32>,
    /// Thread `t`'s replies are `replies[reply_start[t]..reply_start[t + 1]]`.
    replies: Vec<u32>,
    reply_start: Vec<u32>,
}

/// The comment order both lists keep: oldest first, ties by ID.
fn by_time_then_id(comments: &[Comment]) -> impl Fn(&u32, &u32) -> std::cmp::Ordering + '_ {
    move |&a, &b| {
        let (a, b) = (&comments[a as usize], &comments[b as usize]);
        a.published_at
            .cmp(&b.published_at)
            .then_with(|| a.id.cmp(&b.id))
    }
}

/// Counting sort of `items` into `groups` buckets: returns the bucket
/// bounds (`groups + 1` offsets) and the items in bucket order, each
/// bucket in input order.
fn bucket(groups: usize, items: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; groups + 1];
    for &(group, _) in items {
        start[group as usize + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut cursor = start.clone();
    let mut out = vec![0u32; items.len()];
    for &(group, item) in items {
        let at = &mut cursor[group as usize];
        out[*at as usize] = item;
        *at += 1;
    }
    (start, out)
}

fn range(start: &[u32], at: usize) -> Range<usize> {
    match (start.get(at), start.get(at + 1)) {
        (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
        _ => 0..0,
    }
}

impl ThreadIndex {
    /// Indexes `comments`; `video_of` maps a video ID to its position in
    /// corpus order (`0..video_count`), `None` outside the corpus.
    pub(crate) fn build(
        comments: &[Comment],
        video_count: usize,
        video_of: impl Fn(&VideoId) -> Option<usize>,
    ) -> ThreadIndex {
        let mut by_id: HashMap<CommentId, u32> = HashMap::with_capacity(comments.len());
        for (ci, comment) in comments.iter().enumerate() {
            by_id.insert(comment.id.clone(), ci as u32);
        }
        // (video, comment) for each top-level comment on a corpus video,
        // and (parent, reply) for each reply whose parent is on its video.
        // The corpus lists a video's comments together and a reply after
        // its parent, so the previous video and parent are tried before
        // a map lookup.
        let mut tops: Vec<(u32, u32)> = Vec::with_capacity(comments.len());
        let mut replies: Vec<(u32, u32)> = Vec::new();
        let mut last_video: Option<(&VideoId, Option<usize>)> = None;
        let mut last_top: Option<(&str, u32)> = None;
        for (ci, comment) in comments.iter().enumerate() {
            match comment.id.as_str().split_once('.') {
                None => {
                    let video = match last_video {
                        Some((id, video)) if *id == comment.video_id => video,
                        _ => video_of(&comment.video_id),
                    };
                    last_video = Some((&comment.video_id, video));
                    last_top = Some((comment.id.as_str(), ci as u32));
                    if let Some(video) = video {
                        tops.push((video as u32, ci as u32));
                    }
                }
                Some((parent, _)) => {
                    let parent = match last_top {
                        Some((id, top)) if id == parent => Some(top),
                        _ => by_id.get(parent).copied(),
                    };
                    if let Some(parent) = parent {
                        if comments[parent as usize].video_id == comment.video_id {
                            replies.push((parent, ci as u32));
                        }
                    }
                }
            }
        }
        let (video_start, mut tops) = bucket(video_count, &tops);
        let order = by_time_then_id(comments);
        for video in 0..video_count {
            tops[range(&video_start, video)].sort_by(&order);
        }
        // Thread numbers by corpus index of the top-level comment; a
        // reply whose parent is on no corpus video joins no thread.
        let mut thread_of = vec![u32::MAX; comments.len()];
        for (thread, &top) in tops.iter().enumerate() {
            thread_of[top as usize] = thread as u32;
        }
        let replies: Vec<(u32, u32)> = replies
            .into_iter()
            .filter_map(|(parent, reply)| {
                let thread = thread_of[parent as usize];
                (thread != u32::MAX).then_some((thread, reply))
            })
            .collect();
        let (reply_start, mut replies) = bucket(tops.len(), &replies);
        for thread in 0..tops.len() {
            replies[range(&reply_start, thread)].sort_by(&order);
        }
        ThreadIndex {
            by_id,
            video_start,
            tops,
            reply_start,
            replies,
        }
    }

    /// The corpus index of comment `id`.
    pub(crate) fn comment<Q>(&self, id: &Q) -> Option<usize>
    where
        CommentId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.by_id.get(id).map(|&ci| ci as usize)
    }

    /// The threads of the video at corpus position `video`, and their
    /// top-level comments, oldest first.
    pub(crate) fn video_threads(&self, video: usize) -> (Range<usize>, &[u32]) {
        let threads = range(&self.video_start, video);
        let tops = self.tops.get(threads.clone()).unwrap_or_default();
        (threads, tops)
    }

    /// The thread headed by comment `top` (a corpus index) on the video
    /// at corpus position `video`; `None` for a reply.
    pub(crate) fn thread_of(
        &self,
        comments: &[Comment],
        top: usize,
        video: usize,
    ) -> Option<usize> {
        let (threads, tops) = self.video_threads(video);
        let at = tops
            .binary_search_by(|&t| by_time_then_id(comments)(&t, &(top as u32)))
            .ok()?;
        (tops[at] as usize == top).then_some(threads.start + at)
    }

    /// The replies of thread `thread`, oldest first.
    pub(crate) fn thread_replies(&self, thread: usize) -> &[u32] {
        self.replies
            .get(range(&self.reply_start, thread))
            .unwrap_or_default()
    }
}

/// The prefix of `sorted` (corpus indices in posting order) posted by
/// `now`.
pub(crate) fn posted_by<'a>(comments: &[Comment], sorted: &'a [u32], now: Timestamp) -> &'a [u32] {
    let visible = sorted.partition_point(|&ci| comments[ci as usize].published_at <= now);
    &sorted[..visible]
}
