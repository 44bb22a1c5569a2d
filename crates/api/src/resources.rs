//! Wire-schema resources mirroring the YouTube Data API v3 JSON shapes.
//!
//! Fidelity notes (matching the real API, which the audit's tooling must
//! parse):
//! * all counters in `statistics` parts are **strings** on the wire
//!   (`"viewCount": "123"`), not numbers;
//! * list responses carry `kind`, `etag`, optional `nextPageToken`/
//!   `prevPageToken`, and a `pageInfo` with `totalResults` (the field the
//!   paper's Table 4 analyzes) and `resultsPerPage`;
//! * search items nest the video ID under `id.videoId` while `Videos:
//!   list` items carry a bare string `id`.
//!
//! These are the shapes clients decode responses into. The service does
//! not build them: it writes each body straight from the platform's
//! records with the same key order and omissions (see `render`). The
//! `Serialize` derives are unused at run time; the offline serde
//! round-trip suite (`benchmark/offline/serde_json/tests/wire_shapes.rs`)
//! still exercises them.

use serde::{Deserialize, Serialize};

/// `pageInfo` on every list response. `totalResults` is the noisy,
/// 1M-capped pool estimate the paper studies in §5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct PageInfo {
    /// "The total number of results in the result set" (documented max
    /// 1,000,000).
    pub total_results: u64,
    /// Number of results per page for this request.
    pub results_per_page: u32,
}

/// `snippet` of a search result or playlist item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct Snippet {
    /// RFC 3339 upload instant.
    pub published_at: String,
    /// Uploading channel ID.
    pub channel_id: String,
    /// Video title.
    pub title: String,
    /// Video description.
    pub description: String,
    /// Uploading channel title.
    pub channel_title: String,
    /// `none`, `live`, or `upcoming`; always `none` for our corpus.
    pub live_broadcast_content: String,
}

/// The `id` object of a search result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct SearchResultId {
    /// Always `youtube#video` here (`type=video` searches).
    pub kind: String,
    /// The video ID.
    pub video_id: String,
}

/// One `Search: list` item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct SearchResult {
    /// `youtube#searchResult`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Nested ID object.
    pub id: SearchResultId,
    /// Snippet part (present when `part=snippet`).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snippet: Option<Snippet>,
}

/// `Search: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct SearchListResponse {
    /// `youtube#searchListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Token for the next page, when more results exist.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next_page_token: Option<String>,
    /// Token for the previous page.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub prev_page_token: Option<String>,
    /// Region the request was processed for.
    pub region_code: String,
    /// Pagination metadata, including `totalResults`.
    pub page_info: PageInfo,
    /// The page of results.
    pub items: Vec<SearchResult>,
}

/// `contentDetails` of a video.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct VideoContentDetails {
    /// ISO-8601 duration, e.g. `PT4M13S`.
    pub duration: String,
    /// `hd` or `sd`.
    pub definition: String,
}

/// `statistics` of a video — all counters are strings on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct VideoStatistics {
    /// View count as a decimal string.
    pub view_count: String,
    /// Like count as a decimal string.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub like_count: Option<String>,
    /// Comment count as a decimal string.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub comment_count: Option<String>,
}

/// One `Videos: list` item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct VideoResource {
    /// `youtube#video`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Bare video ID (unlike search results).
    pub id: String,
    /// Snippet part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snippet: Option<Snippet>,
    /// Content details part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub content_details: Option<VideoContentDetails>,
    /// Statistics part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub statistics: Option<VideoStatistics>,
}

/// `Videos: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct VideoListResponse {
    /// `youtube#videoListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Next-page token.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next_page_token: Option<String>,
    /// Pagination metadata.
    pub page_info: PageInfo,
    /// The page of resources. Unknown or unavailable IDs are *omitted*,
    /// not errors — exactly the behaviour Figure 4 measures.
    pub items: Vec<VideoResource>,
}

/// Channel `snippet`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ChannelSnippet {
    /// Channel title.
    pub title: String,
    /// Channel description.
    pub description: String,
    /// Channel creation instant.
    pub published_at: String,
}

/// Channel `statistics` — strings on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ChannelStatistics {
    /// Total channel views.
    pub view_count: String,
    /// Subscriber count.
    pub subscriber_count: String,
    /// Whether the subscriber count is hidden.
    pub hidden_subscriber_count: bool,
    /// Number of public videos.
    pub video_count: String,
}

/// `contentDetails.relatedPlaylists` of a channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct RelatedPlaylists {
    /// The uploads playlist (`UU…`) — the ID-based route to complete
    /// channel catalogues the paper recommends.
    pub uploads: String,
}

/// Channel `contentDetails`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ChannelContentDetails {
    /// Related playlists (uploads).
    pub related_playlists: RelatedPlaylists,
}

/// One `Channels: list` item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ChannelResource {
    /// `youtube#channel`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Channel ID.
    pub id: String,
    /// Snippet part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snippet: Option<ChannelSnippet>,
    /// Content details part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub content_details: Option<ChannelContentDetails>,
    /// Statistics part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub statistics: Option<ChannelStatistics>,
}

/// `Channels: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ChannelListResponse {
    /// `youtube#channelListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Pagination metadata.
    pub page_info: PageInfo,
    /// The page of resources.
    pub items: Vec<ChannelResource>,
}

/// Playlist item `snippet.resourceId`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ResourceId {
    /// `youtube#video`.
    pub kind: String,
    /// The video ID.
    pub video_id: String,
}

/// Playlist item snippet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct PlaylistItemSnippet {
    /// Upload instant of the contained video.
    pub published_at: String,
    /// Owning channel.
    pub channel_id: String,
    /// Video title.
    pub title: String,
    /// Playlist this item belongs to.
    pub playlist_id: String,
    /// Zero-based position within the playlist.
    pub position: u32,
    /// The contained resource.
    pub resource_id: ResourceId,
}

/// One `PlaylistItems: list` item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct PlaylistItemResource {
    /// `youtube#playlistItem`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Playlist item ID.
    pub id: String,
    /// Snippet part.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snippet: Option<PlaylistItemSnippet>,
}

/// `PlaylistItems: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct PlaylistItemListResponse {
    /// `youtube#playlistItemListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Next-page token.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next_page_token: Option<String>,
    /// Pagination metadata.
    pub page_info: PageInfo,
    /// The page of resources.
    pub items: Vec<PlaylistItemResource>,
}

/// Comment snippet (shared by top-level comments and replies).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentSnippet {
    /// The video the comment is on.
    pub video_id: String,
    /// Comment text.
    pub text_display: String,
    /// Commenting channel.
    pub author_channel_id: String,
    /// Likes on the comment.
    pub like_count: u64,
    /// Posting instant.
    pub published_at: String,
    /// Parent comment ID, for replies.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub parent_id: Option<String>,
}

/// A comment resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentResource {
    /// `youtube#comment`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Comment ID (replies are `parent.child`).
    pub id: String,
    /// Snippet part.
    pub snippet: CommentSnippet,
}

/// `commentThread.snippet`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentThreadSnippet {
    /// The video the thread is on.
    pub video_id: String,
    /// The thread's top-level comment.
    pub top_level_comment: CommentResource,
    /// Total number of replies (may exceed the ≤ 5 embedded in
    /// `replies.comments`; fetch the rest via `Comments: list`).
    pub total_reply_count: u64,
    /// Whether replies are possible.
    pub can_reply: bool,
}

/// Embedded replies of a comment thread (at most five).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentThreadReplies {
    /// Up to five reply comments.
    pub comments: Vec<CommentResource>,
}

/// One `CommentThreads: list` item.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentThreadResource {
    /// `youtube#commentThread`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Thread ID (= top-level comment ID).
    pub id: String,
    /// Snippet part.
    pub snippet: CommentThreadSnippet,
    /// Embedded replies, when any exist.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub replies: Option<CommentThreadReplies>,
}

/// `CommentThreads: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentThreadListResponse {
    /// `youtube#commentThreadListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Next-page token.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next_page_token: Option<String>,
    /// Pagination metadata.
    pub page_info: PageInfo,
    /// The page of threads.
    pub items: Vec<CommentThreadResource>,
}

/// `Comments: list` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct CommentListResponse {
    /// `youtube#commentListResponse`.
    pub kind: String,
    /// Entity tag.
    pub etag: String,
    /// Next-page token.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub next_page_token: Option<String>,
    /// Pagination metadata.
    pub page_info: PageInfo,
    /// The page of comments.
    pub items: Vec<CommentResource>,
}

/// One entry of the error envelope's `errors` array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ErrorItem {
    /// Human-readable message.
    pub message: String,
    /// Error domain (e.g. `youtube.quota`).
    pub domain: String,
    /// Machine-readable reason (e.g. `quotaExceeded`).
    pub reason: String,
}

/// The inner error object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
pub struct ErrorBody {
    /// HTTP status code.
    pub code: u16,
    /// Top-level message.
    pub message: String,
    /// Individual errors.
    pub errors: Vec<ErrorItem>,
    /// `Retry-After` hint in seconds, on shed (429) responses. The real
    /// API carries this as an HTTP header; the envelope mirrors it so
    /// in-process transports (which only see the body) get the hint too.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub retry_after_secs: Option<u64>,
}

/// The error envelope every failed Data API call returns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// The error payload.
    pub error: ErrorBody,
}

/// Computes a stable etag for a response body fragment.
pub fn etag_for(content: &str) -> String {
    crate::render::Etag::new().str(content).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{self, Etag, Parts};
    use crate::service::error_response;
    use ytaudit_types::json::JsonWriter;
    use ytaudit_types::{
        ApiErrorReason, Channel, ChannelId, ChannelStats, Comment, CommentId, Definition, Error,
        IsoDuration, Timestamp, Video, VideoId, VideoStats,
    };

    fn video() -> Video {
        Video {
            id: VideoId::new("dQw4w9WgXcQ"),
            channel_id: ChannelId::new("UCabc"),
            title: "t".into(),
            description: "d".into(),
            terms: Vec::new(),
            published_at: Timestamp::from_ymd_hms(2016, 6, 23, 12, 0, 0).unwrap(),
            duration: IsoDuration::from_secs(253),
            definition: Definition::Hd,
            stats: VideoStats {
                views: 12_345,
                likes: 99,
                comments: 7,
            },
            deleted_at: None,
        }
    }

    fn channel() -> Channel {
        Channel {
            id: ChannelId::new("UCabc"),
            title: "ct".into(),
            published_at: Timestamp::from_ymd(2010, 1, 1).unwrap(),
            stats: ChannelStats::default(),
        }
    }

    #[test]
    fn search_response_serializes_like_the_real_api() {
        let (video, channel) = (video(), channel());
        let mut w = JsonWriter::default();
        render::list_head(
            &mut w,
            "youtube#searchListResponse",
            Etag::new().str("x"),
            Some("CAUQAA"),
            None,
        );
        w.key("regionCode").str("US");
        render::page_info(&mut w, 1_000_000, 50);
        w.key("items").begin_array().begin_object();
        w.key("kind").str("youtube#searchResult");
        Etag::new().str("item").write(&mut w);
        w.key("id").begin_object();
        w.key("kind").str("youtube#video");
        w.key("videoId").str(video.id.as_str());
        w.end_object();
        render::video_snippet(&mut w, &video, Some(&channel));
        w.end_object().end_array().end_object();
        let body = w.into_string();

        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(json["kind"], "youtube#searchListResponse");
        assert_eq!(json["pageInfo"]["totalResults"], 1_000_000);
        assert_eq!(json["items"][0]["id"]["videoId"], "dQw4w9WgXcQ");
        assert_eq!(
            json["items"][0]["snippet"]["publishedAt"],
            "2016-06-23T12:00:00Z"
        );
        assert!(json.get("prevPageToken").is_none());
        // The body decodes into the client's shape.
        let expected = SearchListResponse {
            kind: "youtube#searchListResponse".into(),
            etag: etag_for("x"),
            next_page_token: Some("CAUQAA".into()),
            prev_page_token: None,
            region_code: "US".into(),
            page_info: PageInfo {
                total_results: 1_000_000,
                results_per_page: 50,
            },
            items: vec![SearchResult {
                kind: "youtube#searchResult".into(),
                etag: etag_for("item"),
                id: SearchResultId {
                    kind: "youtube#video".into(),
                    video_id: "dQw4w9WgXcQ".into(),
                },
                snippet: Some(Snippet {
                    published_at: "2016-06-23T12:00:00Z".into(),
                    channel_id: "UCabc".into(),
                    title: "t".into(),
                    description: "d".into(),
                    channel_title: "ct".into(),
                    live_broadcast_content: "none".into(),
                }),
            }],
        };
        let back: SearchListResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(back, expected);
    }

    #[test]
    fn statistics_are_strings_on_the_wire() {
        let mut w = JsonWriter::default();
        let parts = Parts::of(&["statistics"]);
        render::video(&mut w, &video(), None, parts);
        let body = w.into_string();
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(json["statistics"]["viewCount"], "12345");
        assert_eq!(json["statistics"]["likeCount"], "99");
        assert_eq!(json["statistics"]["commentCount"], "7");
        assert!(
            json.get("snippet").is_none(),
            "unrequested parts are omitted"
        );
        assert!(json.get("contentDetails").is_none());
        // A counter the API leaves out decodes as absent.
        let stats: VideoStatistics = serde_json::from_str(r#"{"viewCount":"5"}"#).unwrap();
        assert_eq!(stats.like_count, None);
        assert_eq!(stats.comment_count, None);
    }

    #[test]
    fn error_envelope_shape() {
        let (code, json) = error_response(&Error::api(
            ApiErrorReason::QuotaExceeded,
            "The request cannot be completed because you have exceeded your quota.",
        ));
        assert_eq!(code, 403);
        assert!(json.contains("\"code\":403"));
        assert!(json.contains("\"reason\":\"quotaExceeded\""));
        assert!(json.contains("\"domain\":\"youtube.quota\""));
        assert!(!json.contains("retryAfterSecs"), "absent hint is omitted");
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.errors[0].reason, "quotaExceeded");
        assert_eq!(back.error.retry_after_secs, None);
    }

    #[test]
    fn error_envelope_carries_the_retry_after_hint() {
        let (code, json) = error_response(&Error::api_with_retry_after(
            ApiErrorReason::RateLimited,
            "shed",
            3,
        ));
        assert_eq!(code, 429);
        assert!(json.contains("\"retryAfterSecs\":3"), "{json}");
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.retry_after_secs, Some(3));
        assert_eq!(back.error.errors[0].reason, "rateLimitExceeded");
    }

    #[test]
    fn etags_are_stable_and_distinct() {
        assert_eq!(etag_for("a"), etag_for("a"));
        assert_ne!(etag_for("a"), etag_for("b"));
        assert!(etag_for("a").starts_with('"'));
    }

    #[test]
    fn comment_thread_shape() {
        let top = Comment {
            id: CommentId::new("abc"),
            video_id: VideoId::new("vid"),
            author_channel_id: ChannelId::new("UCx"),
            text: "first!".into(),
            published_at: Timestamp::from_ymd(2021, 1, 7).unwrap(),
            like_count: 3,
        };
        let reply = Comment {
            id: CommentId::new("abc.def"),
            ..top.clone()
        };
        let mut w = JsonWriter::default();
        render::comment_thread(&mut w, "vid", &top, &[&reply, &reply]);
        let body = w.into_string();
        let json: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(json["snippet"]["topLevelComment"]["id"], "abc");
        assert!(json["snippet"]["topLevelComment"]["snippet"]
            .get("parentId")
            .is_none());
        assert_eq!(json["replies"]["comments"][0]["snippet"]["parentId"], "abc");
        assert_eq!(json["snippet"]["totalReplyCount"], 2);
        let back: CommentThreadResource = serde_json::from_str(&body).unwrap();
        assert_eq!(back.etag, etag_for("abc"));
        assert_eq!(back.replies.map(|r| r.comments.len()), Some(2));
        // A thread without replies omits the `replies` part.
        let mut w = JsonWriter::default();
        render::comment_thread(&mut w, "vid", &top, &[]);
        assert!(!w.into_string().contains("\"replies\""));
    }
}
