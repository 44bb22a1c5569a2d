//! Golden pins of the simulated Data API's response bytes.
//!
//! A fixed request set runs through the HTTP route table against a fresh
//! `ApiService` over a `Platform::small(0.3)` corpus. It covers all six endpoints, every
//! accepted `part` combination, a second page through `pageToken`, unknown
//! and deleted IDs, and the 400, 403, 404, 429 and 500 envelopes. Each
//! response is pinned by status, length and a 64-bit FNV-1a digest of its
//! body; a few short bodies are pinned in full.
//!
//! The pins were taken from the serde-encoded responses, so any renderer
//! must reproduce those bytes exactly. After a deliberate wire change, run
//! this test and copy the table it prints on a mismatch.

use std::sync::Arc;
use ytaudit_api::quota::Endpoint;
use ytaudit_api::route;
use ytaudit_api::service::{error_response, ApiService};
use ytaudit_net::url::QueryString;
use ytaudit_net::Request;
use ytaudit_platform::{Platform, SimClock};
use ytaudit_types::{ApiErrorReason, Error, Timestamp, Topic, Video};

const KEY: &str = "pin-key";
const TIGHT_KEY: &str = "pin-tight";

struct Case {
    name: String,
    endpoint: Endpoint,
    params: Vec<(String, String)>,
    key: Option<&'static str>,
    now: Option<Timestamp>,
}

fn case(name: impl Into<String>, endpoint: Endpoint, params: &[(&str, &str)]) -> Case {
    Case {
        name: name.into(),
        endpoint,
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        key: Some(KEY),
        now: None,
    }
}

fn at(mut c: Case, now: Timestamp) -> Case {
    c.now = Some(now);
    c
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &b| {
        (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Every non-empty subset of `parts`, comma-joined in order.
fn part_subsets(parts: &[&str]) -> Vec<String> {
    (1u32..1 << parts.len())
        .map(|mask| {
            parts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, p)| *p)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

/// The `"nextPageToken"` of a response body.
fn next_token(body: &str) -> String {
    let value: serde_json::Value = serde_json::from_str(body).expect("a JSON body");
    value["nextPageToken"]
        .as_str()
        .expect("the first page has a next page")
        .to_string()
}

/// Sends `c` through the HTTP route table, as `serve` would.
fn run(svc: &ApiService, c: &Case) -> (u16, String) {
    let mut query = QueryString::new();
    for (k, v) in &c.params {
        query.push(k.as_str(), v.as_str());
    }
    if let Some(key) = c.key {
        query.push("key", key);
    }
    let mut req = Request::get(format!("/youtube/v3/{}", c.endpoint.path())).with_query(query);
    if let Some(now) = c.now {
        req = req.with_header("x-sim-time", now.to_rfc3339());
    }
    let resp = route(svc, &req);
    let body = String::from_utf8(resp.body).expect("a UTF-8 body");
    (resp.status.0, body)
}

/// Runs the fixed request set, in order, on one fresh service.
fn responses() -> Vec<(String, u16, String)> {
    let platform = Arc::new(Platform::small(0.3));
    let svc = ApiService::new(Arc::clone(&platform), SimClock::at_audit_start());
    svc.quota().register(KEY, u64::MAX / 4);
    svc.quota().register(TIGHT_KEY, 100);
    let start = svc.clock().now();
    let later = start.add_days(60);
    let corpus = platform.corpus();
    let videos: Vec<&Video> = corpus.topics.iter().flat_map(|t| &t.videos).collect();

    let mut out = Vec::new();
    let mut push = |c: Case| {
        let (status, body) = run(&svc, &c);
        out.push((c.name, status, body));
    };

    // --- Search: list ---
    let spec = Topic::Grammys.spec();
    let after = Topic::Grammys.window_start().to_rfc3339();
    let before = Topic::Grammys.window_end().to_rfc3339();
    let window = |part: &str, max: &str, order: &str| -> Vec<(String, String)> {
        [
            ("part", part),
            ("q", spec.query),
            ("order", order),
            ("type", "video"),
            ("maxResults", max),
            ("publishedAfter", after.as_str()),
            ("publishedBefore", before.as_str()),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    };
    for part in ["id", "snippet", "id,snippet", "snippet,id"] {
        push(Case {
            name: format!("search part={part}"),
            endpoint: Endpoint::Search,
            params: window(part, "50", "date"),
            key: Some(KEY),
            now: None,
        });
    }
    for order in ["relevance", "viewCount"] {
        push(Case {
            name: format!("search order={order}"),
            endpoint: Endpoint::Search,
            params: window("snippet", "20", order),
            key: Some(KEY),
            now: None,
        });
    }
    let mut paged = window("snippet", "7", "date");
    let (_, first) = run(
        &svc,
        &Case {
            name: String::new(),
            endpoint: Endpoint::Search,
            params: paged.clone(),
            key: Some(KEY),
            now: None,
        },
    );
    paged.push(("pageToken".into(), next_token(&first)));
    push(Case {
        name: "search page 2".into(),
        endpoint: Endpoint::Search,
        params: paged,
        key: Some(KEY),
        now: None,
    });
    push(case(
        "search default page size",
        Endpoint::Search,
        &[("part", "snippet"), ("q", "higgs boson"), ("type", "video")],
    ));
    let channel = &corpus.channels[0];
    push(case(
        "search channelId",
        Endpoint::Search,
        &[
            ("part", "snippet"),
            ("channelId", channel.id.as_str()),
            ("maxResults", "50"),
        ],
    ));
    push(case(
        "search unknown topic",
        Endpoint::Search,
        &[("part", "snippet"), ("q", "zzqx"), ("maxResults", "50")],
    ));
    push(case("search 400 no part", Endpoint::Search, &[("q", "x")]));
    push(case(
        "search 400 bad part",
        Endpoint::Search,
        &[("part", "nonsense"), ("q", "x")],
    ));
    push(case(
        "search 400 maxResults",
        Endpoint::Search,
        &[("part", "id"), ("q", "x"), ("maxResults", "51")],
    ));
    push(case(
        "search 400 type",
        Endpoint::Search,
        &[("part", "id"), ("q", "x"), ("type", "playlist")],
    ));
    push(case(
        "search 400 no filter",
        Endpoint::Search,
        &[("part", "id")],
    ));
    push(case(
        "search 400 page token",
        Endpoint::Search,
        &[
            ("part", "id"),
            ("q", "higgs boson"),
            ("pageToken", "garbage"),
        ],
    ));
    push(case(
        "search 400 publishedAfter",
        Endpoint::Search,
        &[("part", "id"), ("q", "x"), ("publishedAfter", "yesterday")],
    ));

    // --- Videos: list ---
    let ids3 = format!("{},{},{}", videos[0].id, videos[1].id, videos[2].id);
    for part in part_subsets(&["id", "snippet", "contentDetails", "statistics"]) {
        push(case(
            format!("videos part={part}"),
            Endpoint::Videos,
            &[("part", &part), ("id", &ids3)],
        ));
    }
    let batch: Vec<&str> = videos
        .iter()
        .skip(10)
        .take(50)
        .map(|v| v.id.as_str())
        .collect();
    push(case(
        "videos batch of 50",
        Endpoint::Videos,
        &[
            ("part", "snippet,contentDetails,statistics"),
            ("id", &batch.join(",")),
        ],
    ));
    push(case(
        "videos repeated id params",
        Endpoint::Videos,
        &[
            ("part", "statistics"),
            ("id", videos[3].id.as_str()),
            ("id", videos[4].id.as_str()),
        ],
    ));
    push(case(
        "videos unknown id",
        Endpoint::Videos,
        &[("part", "snippet"), ("id", "doesnotexist00")],
    ));
    let deleted = videos
        .iter()
        .find(|v| v.deleted_at.is_some())
        .expect("the corpus deletes videos");
    let deleted_at = deleted.deleted_at.expect("deleted");
    push(at(
        case(
            "videos deleted id before deletion",
            Endpoint::Videos,
            &[("part", "snippet,statistics"), ("id", deleted.id.as_str())],
        ),
        deleted_at + (-1),
    ));
    push(at(
        case(
            "videos deleted id after deletion",
            Endpoint::Videos,
            &[("part", "snippet,statistics"), ("id", deleted.id.as_str())],
        ),
        deleted_at + 1,
    ));
    push(case(
        "videos 400 no id",
        Endpoint::Videos,
        &[("part", "id")],
    ));
    let many: Vec<String> = (0..51).map(|i| format!("v{i}")).collect();
    push(case(
        "videos 400 51 ids",
        Endpoint::Videos,
        &[("part", "id"), ("id", &many.join(","))],
    ));

    // --- Channels: list ---
    let chans = format!("{},{},UCnope", corpus.channels[0].id, corpus.channels[1].id);
    for part in part_subsets(&["id", "snippet", "contentDetails", "statistics"]) {
        push(case(
            format!("channels part={part}"),
            Endpoint::Channels,
            &[("part", &part), ("id", &chans)],
        ));
    }
    push(case(
        "channels unknown id",
        Endpoint::Channels,
        &[("part", "snippet"), ("id", "UCnope")],
    ));

    // --- PlaylistItems: list ---
    let uploads_of = |c: &ytaudit_types::Channel| {
        platform
            .playlist_items(&c.id.uploads_playlist(), start)
            .map_or(0, |v| v.len())
    };
    let busy = corpus
        .channels
        .iter()
        .max_by_key(|c| (uploads_of(c), c.id.clone()))
        .expect("channels");
    let uploads = busy.id.uploads_playlist();
    for part in part_subsets(&["id", "snippet", "contentDetails"]) {
        push(case(
            format!("playlistItems part={part}"),
            Endpoint::PlaylistItems,
            &[
                ("part", &part),
                ("playlistId", uploads.as_str()),
                ("maxResults", "3"),
            ],
        ));
    }
    let first_page = [
        ("part", "snippet"),
        ("playlistId", uploads.as_str()),
        ("maxResults", "2"),
    ];
    let (_, first) = run(&svc, &case("", Endpoint::PlaylistItems, &first_page));
    let token = next_token(&first);
    push(case(
        "playlistItems page 2",
        Endpoint::PlaylistItems,
        &[
            ("part", "snippet"),
            ("playlistId", uploads.as_str()),
            ("maxResults", "2"),
            ("pageToken", &token),
        ],
    ));
    push(case(
        "playlistItems 404",
        Endpoint::PlaylistItems,
        &[("part", "snippet"), ("playlistId", "UUnope")],
    ));
    push(case(
        "playlistItems 400 no playlistId",
        Endpoint::PlaylistItems,
        &[("part", "snippet")],
    ));

    // --- CommentThreads: list ---
    let threaded = videos
        .iter()
        .find(|v| {
            let threads = platform.comment_threads(&v.id, later);
            threads.len() >= 3 && threads.iter().any(|t| t.replies.len() >= 2)
        })
        .expect("a video with replied threads");
    for part in part_subsets(&["id", "snippet", "replies"]) {
        push(at(
            case(
                format!("commentThreads part={part}"),
                Endpoint::CommentThreads,
                &[
                    ("part", &part),
                    ("videoId", threaded.id.as_str()),
                    ("maxResults", "100"),
                ],
            ),
            later,
        ));
    }
    push(at(
        case(
            "commentThreads default page size",
            Endpoint::CommentThreads,
            &[
                ("part", "snippet,replies"),
                ("videoId", threaded.id.as_str()),
            ],
        ),
        later,
    ));
    let first_page = [
        ("part", "snippet"),
        ("videoId", threaded.id.as_str()),
        ("maxResults", "2"),
    ];
    let (_, first) = run(
        &svc,
        &at(case("", Endpoint::CommentThreads, &first_page), later),
    );
    let token = next_token(&first);
    push(at(
        case(
            "commentThreads page 2",
            Endpoint::CommentThreads,
            &[
                ("part", "snippet"),
                ("videoId", threaded.id.as_str()),
                ("maxResults", "2"),
                ("pageToken", &token),
            ],
        ),
        later,
    ));
    push(case(
        "commentThreads at audit start",
        Endpoint::CommentThreads,
        &[
            ("part", "snippet,replies"),
            ("videoId", threaded.id.as_str()),
        ],
    ));
    let higgs = corpus
        .topics
        .iter()
        .find(|t| t.topic == Topic::Higgs)
        .and_then(|t| {
            t.videos
                .iter()
                .find(|v| !platform.comment_threads(&v.id, later).is_empty())
        })
        .expect("a Higgs video with comments");
    push(at(
        case(
            "commentThreads without replies",
            Endpoint::CommentThreads,
            &[("part", "snippet,replies"), ("videoId", higgs.id.as_str())],
        ),
        later,
    ));
    push(at(
        case(
            "commentThreads 404 deleted video",
            Endpoint::CommentThreads,
            &[("part", "snippet"), ("videoId", deleted.id.as_str())],
        ),
        deleted_at + 1,
    ));
    push(case(
        "commentThreads 404 unknown video",
        Endpoint::CommentThreads,
        &[("part", "snippet"), ("videoId", "doesnotexist00")],
    ));
    push(case(
        "commentThreads 400 maxResults",
        Endpoint::CommentThreads,
        &[
            ("part", "snippet"),
            ("videoId", threaded.id.as_str()),
            ("maxResults", "101"),
        ],
    ));

    // --- Comments: list ---
    let parent = platform
        .comment_threads(&threaded.id, later)
        .into_iter()
        .find(|t| t.replies.len() >= 2)
        .map(|t| t.top_level.id.clone())
        .expect("a thread with replies");
    for part in part_subsets(&["id", "snippet"]) {
        push(at(
            case(
                format!("comments part={part}"),
                Endpoint::Comments,
                &[("part", &part), ("parentId", parent.as_str())],
            ),
            later,
        ));
    }
    let first_page = [
        ("part", "snippet"),
        ("parentId", parent.as_str()),
        ("maxResults", "1"),
    ];
    let (_, first) = run(&svc, &at(case("", Endpoint::Comments, &first_page), later));
    let token = next_token(&first);
    push(at(
        case(
            "comments page 2",
            Endpoint::Comments,
            &[
                ("part", "snippet"),
                ("parentId", parent.as_str()),
                ("maxResults", "1"),
                ("pageToken", &token),
            ],
        ),
        later,
    ));
    let reply = parent.mint_reply(0);
    push(at(
        case(
            "comments of a reply",
            Endpoint::Comments,
            &[("part", "snippet"), ("parentId", reply.as_str())],
        ),
        later,
    ));
    push(case(
        "comments 404 unknown parent",
        Endpoint::Comments,
        &[("part", "snippet"), ("parentId", "nope")],
    ));
    push(case(
        "comments 400 no parentId",
        Endpoint::Comments,
        &[("part", "snippet")],
    ));

    // --- Keys and quota ---
    let mut no_key = case(
        "403 missing key",
        Endpoint::Videos,
        &[("part", "id"), ("id", "abc")],
    );
    no_key.key = None;
    push(no_key);
    let mut empty_key = case(
        "403 empty key",
        Endpoint::Videos,
        &[("part", "id"), ("id", "abc")],
    );
    empty_key.key = Some("");
    push(empty_key);
    for n in 1..=2 {
        let mut tight = case(
            format!("tight key search {n}"),
            Endpoint::Search,
            &[("part", "id"), ("q", "higgs boson"), ("type", "video")],
        );
        tight.key = Some(TIGHT_KEY);
        push(tight);
    }

    // --- Envelopes built outside a call ---
    let (status, body) = error_response(&Error::api_with_retry_after(
        ApiErrorReason::RateLimited,
        "Tenant rate exceeded; retry later.",
        3,
    ));
    out.push(("429 retryAfterSecs".into(), status, body));
    let (status, body) = error_response(&Error::Decode("bad \"json\"\n".into()));
    out.push(("500 non-API error".into(), status, body));
    out
}

/// `(name, status, length, FNV-1a 64 of the body)` per response, in
/// request order.
const PINS: &[(&str, u16, usize, u64)] = &[
    ("search part=id", 200, 6347, 0x73d2f71448749983),
    ("search part=snippet", 200, 19673, 0x610d7227f14c5276),
    ("search part=id,snippet", 200, 19673, 0x610d7227f14c5276),
    ("search part=snippet,id", 200, 19673, 0x610d7227f14c5276),
    ("search order=relevance", 200, 7984, 0xa1bb74bbae66aafe),
    ("search order=viewCount", 200, 7988, 0x868cb390ab1fb010),
    ("search page 2", 200, 2959, 0xeb10e315974a4745),
    ("search default page size", 200, 2109, 0x603b6f606fecf30e),
    ("search channelId", 200, 1731, 0xb5bb8aa4cfaae8a8),
    ("search unknown topic", 200, 153, 0xa5286d5a4ba2ad21),
    ("search 400 no part", 400, 192, 0xc92fa46c14c9c7db),
    ("search 400 bad part", 400, 244, 0x64510eff8933a2ff),
    ("search 400 maxResults", 400, 262, 0xddd3d09316d5b9d9),
    ("search 400 type", 400, 259, 0x6deef56791fe11a4),
    ("search 400 no filter", 400, 275, 0x8870f86a9a0efabe),
    ("search 400 page token", 400, 230, 0x1faab4f4357a0e48),
    ("search 400 publishedAfter", 400, 232, 0x4e5efb261d4f49bd),
    ("videos part=id", 200, 375, 0x3184775e2d635df2),
    ("videos part=snippet", 200, 1192, 0xf861a14c85e9d206),
    ("videos part=id,snippet", 200, 1192, 0xf861a14c85e9d206),
    ("videos part=contentDetails", 200, 550, 0x2a3b3a1e199e2597),
    (
        "videos part=id,contentDetails",
        200,
        550,
        0x2a3b3a1e199e2597,
    ),
    (
        "videos part=snippet,contentDetails",
        200,
        1367,
        0x6b6d55a3c097e4f7,
    ),
    (
        "videos part=id,snippet,contentDetails",
        200,
        1367,
        0x6b6d55a3c097e4f7,
    ),
    ("videos part=statistics", 200, 586, 0x11e50fd888f6c175),
    ("videos part=id,statistics", 200, 586, 0x11e50fd888f6c175),
    (
        "videos part=snippet,statistics",
        200,
        1403,
        0x7b92aee806b069f7,
    ),
    (
        "videos part=id,snippet,statistics",
        200,
        1403,
        0x7b92aee806b069f7,
    ),
    (
        "videos part=contentDetails,statistics",
        200,
        761,
        0x3b5f003cae981a26,
    ),
    (
        "videos part=id,contentDetails,statistics",
        200,
        761,
        0x3b5f003cae981a26,
    ),
    (
        "videos part=snippet,contentDetails,statistics",
        200,
        1578,
        0x3b083a4b02251684,
    ),
    (
        "videos part=id,snippet,contentDetails,statistics",
        200,
        1578,
        0x3b083a4b02251684,
    ),
    ("videos batch of 50", 200, 24266, 0x8aa6a54fb1a53050),
    ("videos repeated id params", 200, 430, 0x459aea27d58181e2),
    ("videos unknown id", 200, 133, 0x62672ee90e1af800),
    (
        "videos deleted id before deletion",
        200,
        552,
        0x8b817b419ba95a97,
    ),
    (
        "videos deleted id after deletion",
        200,
        133,
        0x86760acc053ad1d9,
    ),
    ("videos 400 no id", 400, 192, 0xad2a9a95463bac43),
    ("videos 400 51 ids", 400, 242, 0x5cba89352b09fe55),
    ("channels part=id", 200, 326, 0x53532ced56a95252),
    ("channels part=snippet", 200, 506, 0x10ebe9e30fe09334),
    ("channels part=id,snippet", 200, 506, 0x10ebe9e30fe09334),
    ("channels part=contentDetails", 200, 480, 0xc094ab97abb7304a),
    (
        "channels part=id,contentDetails",
        200,
        480,
        0xc094ab97abb7304a,
    ),
    (
        "channels part=snippet,contentDetails",
        200,
        660,
        0xf05d94e77c6a79c4,
    ),
    (
        "channels part=id,snippet,contentDetails",
        200,
        660,
        0xf05d94e77c6a79c4,
    ),
    ("channels part=statistics", 200, 543, 0xa7f855c09bf481aa),
    ("channels part=id,statistics", 200, 543, 0xa7f855c09bf481aa),
    (
        "channels part=snippet,statistics",
        200,
        723,
        0xd2ec0475ea25934c,
    ),
    (
        "channels part=id,snippet,statistics",
        200,
        723,
        0xd2ec0475ea25934c,
    ),
    (
        "channels part=contentDetails,statistics",
        200,
        697,
        0xe12db3282cc76d9e,
    ),
    (
        "channels part=id,contentDetails,statistics",
        200,
        697,
        0xe12db3282cc76d9e,
    ),
    (
        "channels part=snippet,contentDetails,statistics",
        200,
        877,
        0x5dbd37444b1e4850,
    ),
    (
        "channels part=id,snippet,contentDetails,statistics",
        200,
        877,
        0x5dbd37444b1e4850,
    ),
    ("channels unknown id", 200, 135, 0x263528e89ed4bc3f),
    ("playlistItems part=id", 200, 461, 0x95a995441aae9fb9),
    ("playlistItems part=snippet", 200, 1166, 0x4edbe8554cc5747c),
    (
        "playlistItems part=id,snippet",
        200,
        1166,
        0x4edbe8554cc5747c,
    ),
    (
        "playlistItems part=contentDetails",
        200,
        461,
        0x95a995441aae9fb9,
    ),
    (
        "playlistItems part=id,contentDetails",
        200,
        461,
        0x95a995441aae9fb9,
    ),
    (
        "playlistItems part=snippet,contentDetails",
        200,
        1166,
        0x4edbe8554cc5747c,
    ),
    (
        "playlistItems part=id,snippet,contentDetails",
        200,
        1166,
        0x4edbe8554cc5747c,
    ),
    ("playlistItems page 2", 200, 837, 0xe2abf17a3ad5cad3),
    ("playlistItems 404", 404, 292, 0x9c3fc20b46fc05aa),
    (
        "playlistItems 400 no playlistId",
        400,
        204,
        0x153ab53aadadd5b3,
    ),
    ("commentThreads part=id", 200, 4582, 0x84caf7917a2e6ad3),
    ("commentThreads part=snippet", 200, 4582, 0x84caf7917a2e6ad3),
    (
        "commentThreads part=id,snippet",
        200,
        4582,
        0x84caf7917a2e6ad3,
    ),
    ("commentThreads part=replies", 200, 4582, 0x84caf7917a2e6ad3),
    (
        "commentThreads part=id,replies",
        200,
        4582,
        0x84caf7917a2e6ad3,
    ),
    (
        "commentThreads part=snippet,replies",
        200,
        4582,
        0x84caf7917a2e6ad3,
    ),
    (
        "commentThreads part=id,snippet,replies",
        200,
        4582,
        0x84caf7917a2e6ad3,
    ),
    (
        "commentThreads default page size",
        200,
        4581,
        0xcd17faaef5ea11ce,
    ),
    ("commentThreads page 2", 200, 2158, 0x5f1240a16ca8edce),
    (
        "commentThreads at audit start",
        200,
        4581,
        0xcd17faaef5ea11ce,
    ),
    (
        "commentThreads without replies",
        200,
        1566,
        0xc099e948172c5428,
    ),
    (
        "commentThreads 404 deleted video",
        404,
        286,
        0x7b2a01313c578afa,
    ),
    (
        "commentThreads 404 unknown video",
        404,
        292,
        0x773fc594de2438aa,
    ),
    (
        "commentThreads 400 maxResults",
        400,
        266,
        0x2818ae19e29a7db5,
    ),
    ("comments part=id", 200, 1125, 0xfff70ce9b9a17842),
    ("comments part=snippet", 200, 1125, 0xfff70ce9b9a17842),
    ("comments part=id,snippet", 200, 1125, 0xfff70ce9b9a17842),
    ("comments page 2", 200, 503, 0x4e50bb7c7e827e40),
    ("comments of a reply", 200, 136, 0xd6c18ba5869c7350),
    ("comments 404 unknown parent", 404, 278, 0x8e46358707300ae2),
    ("comments 400 no parentId", 400, 200, 0x02e08add5f0d8ce7),
    ("403 missing key", 403, 189, 0x25d48bd8569a84f1),
    ("403 empty key", 403, 189, 0x25d48bd8569a84f1),
    ("tight key search 1", 200, 809, 0xc37998a38330ad90),
    ("tight key search 2", 403, 249, 0xbbbd96e6604735b2),
    ("429 retryAfterSecs", 429, 206, 0x6854f9353024b5cb),
    ("500 non-API error", 500, 170, 0xa0a5579111d09cae),
];

/// Short bodies pinned byte for byte.
const FULL: &[(&str, &str)] = &[
    ("search unknown topic", "{\"kind\":\"youtube#searchListResponse\",\"etag\":\"\\\"yt-sim-e79e29a350781216\\\"\",\"regionCode\":\"US\",\"pageInfo\":{\"totalResults\":0,\"resultsPerPage\":50},\"items\":[]}"),
    ("search 400 bad part", "{\"error\":{\"code\":400,\"message\":\"Invalid value for parameter \\\"part\\\": unknown part \\\"nonsense\\\"\",\"errors\":[{\"message\":\"Invalid value for parameter \\\"part\\\": unknown part \\\"nonsense\\\"\",\"domain\":\"youtube.parameter\",\"reason\":\"invalidParameter\"}]}}"),
    ("videos part=id", "{\"kind\":\"youtube#videoListResponse\",\"etag\":\"\\\"yt-sim-21c0f627d5c06134\\\"\",\"pageInfo\":{\"totalResults\":3,\"resultsPerPage\":3},\"items\":[{\"kind\":\"youtube#video\",\"etag\":\"\\\"yt-sim-3e0ea2ba7dbda8d3\\\"\",\"id\":\"5W69qcmQD0g\"},{\"kind\":\"youtube#video\",\"etag\":\"\\\"yt-sim-77fb821ed8bf3e37\\\"\",\"id\":\"2gkkZ9sQFmi\"},{\"kind\":\"youtube#video\",\"etag\":\"\\\"yt-sim-fcd30e6c0f800b7e\\\"\",\"id\":\"aR0vL0AhXJ-\"}]}"),
    ("videos unknown id", "{\"kind\":\"youtube#videoListResponse\",\"etag\":\"\\\"yt-sim-f5405118be8f08ea\\\"\",\"pageInfo\":{\"totalResults\":0,\"resultsPerPage\":0},\"items\":[]}"),
    ("comments of a reply", "{\"kind\":\"youtube#commentListResponse\",\"etag\":\"\\\"yt-sim-e368683c37c13e81\\\"\",\"pageInfo\":{\"totalResults\":0,\"resultsPerPage\":20},\"items\":[]}"),
    ("tight key search 2", "{\"error\":{\"code\":403,\"message\":\"The request cannot be completed because you have exceeded your quota.\",\"errors\":[{\"message\":\"The request cannot be completed because you have exceeded your quota.\",\"domain\":\"youtube.quota\",\"reason\":\"quotaExceeded\"}]}}"),
    ("429 retryAfterSecs", "{\"error\":{\"code\":429,\"message\":\"Tenant rate exceeded; retry later.\",\"errors\":[{\"message\":\"Tenant rate exceeded; retry later.\",\"domain\":\"youtube.parameter\",\"reason\":\"rateLimitExceeded\"}],\"retryAfterSecs\":3}}"),
    ("500 non-API error", "{\"error\":{\"code\":500,\"message\":\"decode error: bad \\\"json\\\"\\n\",\"errors\":[{\"message\":\"decode error: bad \\\"json\\\"\\n\",\"domain\":\"youtube.parameter\",\"reason\":\"backendError\"}]}}"),
];

#[test]
fn every_response_matches_its_pin() {
    let got = responses();
    let table: Vec<(String, u16, usize, u64)> = got
        .iter()
        .map(|(name, status, body)| (name.clone(), *status, body.len(), fnv64(body.as_bytes())))
        .collect();
    let matches = table.len() == PINS.len()
        && table
            .iter()
            .zip(PINS)
            .all(|(g, p)| g.0 == p.0 && g.1 == p.1 && g.2 == p.2 && g.3 == p.3);
    if !matches {
        for (name, status, len, digest) in &table {
            println!("    ({name:?}, {status}, {len}, 0x{digest:016x}),");
        }
        for (name, _, body) in got.iter().filter(|(_, _, b)| b.len() <= 400) {
            println!("    ({name:?}, {body:?}),");
        }
    }
    assert!(
        matches,
        "response bytes differ from the pins (actual table printed above)"
    );
}

#[test]
fn short_bodies_match_in_full() {
    let got = responses();
    assert!(!FULL.is_empty());
    for (name, want) in FULL {
        let body = got
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, b)| b.as_str())
            .unwrap_or_else(|| panic!("no response named {name:?}"));
        assert_eq!(body, *want, "{name}");
    }
}

#[test]
fn the_set_covers_every_endpoint_and_envelope() {
    let got = responses();
    let statuses: std::collections::BTreeSet<u16> = got.iter().map(|(_, s, _)| *s).collect();
    assert_eq!(
        statuses.into_iter().collect::<Vec<_>>(),
        vec![200, 400, 403, 404, 429, 500]
    );
    assert!(got
        .iter()
        .any(|(n, s, b)| n == "search page 2" && *s == 200 && b.contains("\"prevPageToken\"")));
    assert!(got
        .iter()
        .any(|(_, _, b)| b.contains("\"retryAfterSecs\":3")));
    for kind in [
        "youtube#searchListResponse",
        "youtube#videoListResponse",
        "youtube#channelListResponse",
        "youtube#playlistItemListResponse",
        "youtube#commentThreadListResponse",
        "youtube#commentListResponse",
    ] {
        assert!(got.iter().any(|(_, _, b)| b.contains(kind)), "{kind}");
    }
}
