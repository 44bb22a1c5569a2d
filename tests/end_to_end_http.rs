//! End-to-end integration: the full REST path (HTTP server ↔ typed
//! client) must behave identically to the in-process path, because the
//! simulated service is a pure function of (corpus seed, request time).

use std::sync::Arc;
use ytaudit::api::{serve, ApiService};
use ytaudit::client::{HttpTransport, InProcessTransport, SearchQuery, YouTubeClient};
use ytaudit::core::{Collector, CollectorConfig};
use ytaudit::platform::{Platform, SimClock};
use ytaudit::types::{Timestamp, Topic};

fn service(scale: f64) -> Arc<ApiService> {
    let service = Arc::new(ApiService::new(
        Arc::new(Platform::small(scale)),
        SimClock::at_audit_start(),
    ));
    service.quota().register("key", u64::MAX / 2);
    service
}

#[test]
fn http_and_in_process_collections_are_identical() {
    let svc = service(0.15);
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");

    let in_process = YouTubeClient::new(Box::new(InProcessTransport::new(Arc::clone(&svc))), "key");
    let over_http = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key");

    let config = CollectorConfig {
        fetch_comments: false,
        ..CollectorConfig::quick(vec![Topic::Higgs], 2)
    };
    let a = Collector::new(&in_process, config.clone())
        .run()
        .expect("in-process collection");
    let b = Collector::new(&over_http, config)
        .run()
        .expect("HTTP collection");

    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(sa.date, sb.date);
        assert_eq!(sa.topics, sb.topics, "transports must agree exactly");
    }
    assert_eq!(a.video_meta, b.video_meta);
    assert_eq!(a.channel_meta, b.channel_meta);
    server.shutdown();
}

#[test]
fn paginated_search_over_the_wire_respects_the_500_cap() {
    let svc = service(0.4);
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let client = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key");
    client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
    // A full-window query returns many pages but never more than 500.
    let collection = client
        .search_all(&SearchQuery::for_topic(Topic::Blm))
        .expect("search succeeds");
    assert!(collection.items.len() > 100, "{}", collection.items.len());
    assert!(collection.items.len() <= 500);
    assert!(collection.pages <= 10);
    // Items are unique and date-descending.
    let mut seen = std::collections::HashSet::new();
    let mut previous: Option<Timestamp> = None;
    for item in &collection.items {
        assert!(
            seen.insert(item.id.video_id.clone()),
            "duplicate across pages"
        );
        let t = Timestamp::parse_rfc3339(&item.snippet.as_ref().unwrap().published_at).unwrap();
        if let Some(p) = previous {
            assert!(t <= p, "pages must keep the global date ordering");
        }
        previous = Some(t);
    }
    server.shutdown();
}

#[test]
fn server_clock_and_header_override_interact_correctly() {
    let svc = service(0.15);
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let client = YouTubeClient::new(Box::new(HttpTransport::new(server.base_url())), "key");
    let query = SearchQuery::for_topic(Topic::Brexit).max_results(50);

    // No sim time pinned on the client: the server's clock governs.
    client.set_sim_time(None);
    let at_start = client.search_page(&query, None).expect("page");
    svc.clock().set(Timestamp::from_ymd(2025, 4, 30).unwrap());
    let at_end = client.search_page(&query, None).expect("page");
    let ids = |page: &ytaudit::api::resources::SearchListResponse| {
        page.items
            .iter()
            .map(|i| i.id.video_id.clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(
        ids(&at_start),
        ids(&at_end),
        "moving the server clock changes results"
    );

    // Pinning the client's sim time overrides the server clock entirely.
    client.set_sim_time(Some(Timestamp::from_ymd(2025, 2, 9).unwrap()));
    let pinned = client.search_page(&query, None).expect("page");
    assert_eq!(ids(&at_start), ids(&pinned));
    server.shutdown();
}

#[test]
fn concurrent_collectors_share_one_server() {
    let svc = service(0.1);
    let server = serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let base = server.base_url();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let base = base.clone();
        handles.push(std::thread::spawn(move || {
            let client = YouTubeClient::new(Box::new(HttpTransport::new(base)), "key");
            client.set_sim_time(Some(Timestamp::from_ymd(2025, 3, 1).unwrap()));
            client
                .search_all(&SearchQuery::for_topic(Topic::Higgs))
                .expect("search succeeds")
                .video_ids()
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for other in &results[1..] {
        assert_eq!(&results[0], other, "concurrent identical queries agree");
    }
    server.shutdown();
}
