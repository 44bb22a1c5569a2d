//! Cross-crate property tests: invariants of the simulated API as
//! observed through the public client, for randomized queries and dates
//! drawn by `ytaudit::types::kit::check` (CI rotates them with
//! `YTAUDIT_PROP_SEED`).

use std::sync::Arc;
use ytaudit::api::ApiService;
use ytaudit::client::{InProcessTransport, Order, SearchQuery, YouTubeClient};
use ytaudit::platform::{Platform, SimClock};
use ytaudit::types::kit::{check, Rng};
use ytaudit::types::{Timestamp, Topic};

fn harness() -> (YouTubeClient, Arc<ApiService>) {
    // One shared platform per process would be faster, but cases must be
    // independent; a small corpus keeps this cheap.
    let service = Arc::new(ApiService::new(
        Arc::new(Platform::small(0.08)),
        SimClock::at_audit_start(),
    ));
    service.quota().register("key", u64::MAX / 2);
    let client = YouTubeClient::new(
        Box::new(InProcessTransport::new(Arc::clone(&service))),
        "key",
    );
    (client, service)
}

/// Random cases per property: each builds its own platform.
const CASES: usize = 12;

fn topic(rng: &mut Rng) -> Topic {
    Topic::ALL[rng.below(Topic::ALL.len() as u64) as usize]
}

/// For any topic, sub-window, and collection date: results are
/// deterministic, date-descending, unique, within the requested
/// window, and a subset of what the oracle says is eligible.
#[test]
fn search_results_are_sound() {
    check(CASES, 1, |rng| {
        let topic = topic(rng);
        let start_day = rng.range(0, 21);
        let span_days = rng.range(1, 7);
        let collect_day = rng.range(0, 80);
        let (client, service) = harness();
        let after = topic.window_start().add_days(start_day);
        let before = after.add_days(span_days);
        let date = Timestamp::from_ymd(2025, 2, 9)
            .unwrap()
            .add_days(collect_day);
        client.set_sim_time(Some(date));
        let query = SearchQuery::keywords(topic.spec().query)
            .between(after, before)
            .order(Order::Date);
        let first = client.search_all(&query).unwrap();
        let second = client.search_all(&query).unwrap();
        assert_eq!(first.video_ids(), second.video_ids(), "determinism");

        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<Timestamp> = None;
        for item in &first.items {
            assert!(seen.insert(item.id.video_id.clone()), "uniqueness");
            let snippet = item.snippet.as_ref().unwrap();
            let published = Timestamp::parse_rfc3339(&snippet.published_at).unwrap();
            assert!(published >= after && published < before, "window");
            if let Some(p) = prev {
                assert!(published <= p, "date-descending");
            }
            prev = Some(published);
            // Soundness: the oracle knows this video and it matches.
            let video = service
                .platform()
                .video(
                    &ytaudit::types::VideoId::new(item.id.video_id.clone()),
                    date,
                )
                .expect("returned videos exist and are visible");
            assert!(video.matches_tokens(&topic.spec().query_tokens()));
        }
        // The pool estimate respects the documented cap.
        assert!(first.total_results <= 1_000_000);
    });
}

/// Narrowing a query (adding an AND term) never increases the
/// returned set or the pool estimate, at any date.
#[test]
fn restriction_is_monotone() {
    check(CASES, 2, |rng| {
        let (topic, collect_day) = (topic(rng), rng.range(0, 80));
        let (client, _service) = harness();
        let date = Timestamp::from_ymd(2025, 2, 9)
            .unwrap()
            .add_days(collect_day);
        client.set_sim_time(Some(date));
        let broad = SearchQuery::for_topic(topic);
        let narrow = SearchQuery::for_topic(topic).and_term(topic.spec().subtopics[0]);
        let b = client.search_all(&broad).unwrap();
        let n = client.search_all(&narrow).unwrap();
        assert!(n.items.len() <= b.items.len());
        assert!(n.total_results <= b.total_results);
    });
}

/// Pagination is a prefix operation: walking pages of size s yields
/// exactly the first min(10·s, |result set|) items of the full walk —
/// the documented "max 50 per page, max 10 pages" rule means small
/// pages really do see fewer total results.
fn pagination_case(topic: Topic, page_size: u32) {
    let (client, _service) = harness();
    client.set_sim_time(Some(Timestamp::from_ymd(2025, 3, 1).unwrap()));
    let big = client
        .search_all(&SearchQuery::for_topic(topic).max_results(50))
        .unwrap()
        .video_ids();
    let small = client
        .search_all(&SearchQuery::for_topic(topic).max_results(page_size))
        .unwrap()
        .video_ids();
    let reachable = big.len().min(page_size as usize * 10);
    assert_eq!(&small[..], &big[..reachable], "pages walk a stable prefix");
}

#[test]
fn pagination_is_a_prefix() {
    check(CASES, 3, |rng| {
        pagination_case(topic(rng), rng.range(1, 50) as u32)
    });
}

/// A case a shrinker once reduced a pagination failure to.
#[test]
fn pagination_pinned_case() {
    pagination_case(Topic::Blm, 1);
}

/// The quota ledger is exact: units spent = searches×100 + id calls.
#[test]
fn quota_arithmetic_is_exact() {
    check(CASES, 4, |rng| {
        let (n_searches, n_video_calls) = (rng.range(1, 5) as usize, rng.range(0, 4) as usize);
        let (client, service) = harness();
        client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
        let ids: Vec<_> = service.platform().corpus().topics[0]
            .videos
            .iter()
            .take(3)
            .map(|v| v.id.clone())
            .collect();
        for _ in 0..n_searches {
            client
                .search_page(&SearchQuery::for_topic(Topic::Higgs).max_results(5), None)
                .unwrap();
        }
        for _ in 0..n_video_calls {
            client.videos(&ids).unwrap();
        }
        let expected = n_searches as u64 * 100 + n_video_calls as u64;
        assert_eq!(client.budget().units_spent(), expected);
        assert_eq!(
            service
                .quota()
                .used_today("key", Timestamp::from_ymd(2025, 2, 9).unwrap()),
            expected
        );
    });
}
