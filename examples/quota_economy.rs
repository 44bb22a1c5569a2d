//! Quota economics over a real HTTP connection: a default API key dies
//! after 100 searches (100 units each against a 10 000-unit daily budget),
//! a researcher-program key survives a paper-scale collection, and the
//! wire carries the exact `quotaExceeded` envelope the real API sends.
//!
//! Run with: `cargo run --release --example quota_economy`

use std::sync::Arc;
use ytaudit::api::{serve, ApiService, RESEARCHER_DAILY_QUOTA};
use ytaudit::client::{HttpTransport, SearchQuery, YouTubeClient};
use ytaudit::platform::{Platform, SimClock};
use ytaudit::types::{ApiErrorReason, Topic};

fn main() {
    // A real HTTP server on loopback, fronting the simulated API.
    let service = Arc::new(ApiService::new(
        Arc::new(Platform::small(0.2)),
        SimClock::at_audit_start(),
    ));
    service
        .quota()
        .register("research-key", RESEARCHER_DAILY_QUOTA);
    let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    println!("simulated Data API listening on {}\n", server.base_url());

    // --- A default key: 10 000 units/day = 100 searches. ---
    let default_client = YouTubeClient::new(
        Box::new(HttpTransport::new(server.base_url())),
        "default-key",
    );
    let query = SearchQuery::for_topic(Topic::Higgs).max_results(5);
    let mut completed = 0;
    let error = loop {
        match default_client.search_page(&query, None) {
            Ok(_) => completed += 1,
            Err(err) => break err,
        }
    };
    println!("default key: {completed} searches succeeded, then:");
    println!("  {error}");
    assert_eq!(error.api_reason(), Some(ApiErrorReason::QuotaExceeded));

    // The hourly-binned methodology costs far more than one default key
    // per snapshot:
    let per_snapshot = 24 * 28 * 6 * 100u64;
    println!(
        "\none paper snapshot = 4 032 searches = {per_snapshot} units\n\
         = {:.1} default-key days — hence the researcher access program.",
        per_snapshot as f64 / 10_000.0
    );

    // --- A researcher key: survives a full topic collection. ---
    let research_client = YouTubeClient::new(
        Box::new(HttpTransport::new(server.base_url())),
        "research-key",
    );
    research_client.set_sim_time(Some(service.clock().now()));
    let window_start = Topic::Higgs.window_start();
    let mut returned = 0;
    for hour in 0..(24 * 28) {
        let hourly = SearchQuery::for_topic(Topic::Higgs).hour_bin(window_start.add_hours(hour));
        returned += research_client
            .search_all(&hourly)
            .expect("researcher quota holds")
            .items
            .len();
    }
    println!(
        "\nresearcher key: full hourly-binned Higgs collection succeeded —\n\
         {returned} videos over 672 queries, {} units spent.",
        research_client.budget().units_spent()
    );
    println!("\nper-endpoint breakdown (calls, units):");
    for (endpoint, calls, units) in research_client.budget().breakdown() {
        println!("  {endpoint:15} {calls:6} {units:8}");
    }

    server.shutdown();
}
