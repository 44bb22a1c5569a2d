//! §6.1's recommendation, demonstrated: to collect a channel's catalogue,
//! use the ID-based `Channels: list` → `PlaylistItems: list` pipeline —
//! never the search endpoint with a `channelId` filter.
//!
//! Run with: `cargo run --release --example channel_pipeline`

use std::collections::HashSet;
use ytaudit::client::SearchQuery;
use ytaudit::core::testutil::test_client;
use ytaudit::types::{Timestamp, VideoId};

fn main() {
    let (client, service) = test_client(0.5);
    let platform = service.platform();

    // Pick the busiest channel in the corpus.
    let now = Timestamp::from_ymd(2025, 2, 9).unwrap();
    let channel = platform
        .corpus()
        .channels
        .iter()
        .max_by_key(|c| {
            platform
                .playlist_items(&c.id.uploads_playlist(), now)
                .map(|v| v.len())
                .unwrap_or(0)
        })
        .expect("corpus has channels")
        .clone();
    println!("Channel under study: {} ({})\n", channel.title, channel.id);

    for date in [
        Timestamp::from_ymd(2025, 2, 9).unwrap(),
        Timestamp::from_ymd(2025, 4, 30).unwrap(),
    ] {
        client.set_sim_time(Some(date));

        // Strategy A (recommended): Channels:list → uploads playlist →
        // PlaylistItems:list. ID-based, complete, stable, 1 unit per call.
        let uploads = client
            .channel_uploads(&channel.id)
            .expect("pipeline succeeds");
        let playlist_ids: HashSet<VideoId> = uploads
            .iter()
            .filter_map(|item| item.snippet.as_ref())
            .map(|s| VideoId::new(s.resource_id.video_id.clone()))
            .collect();

        // Strategy B (§6.1 warns against): the search endpoint with a
        // channelId filter. 100 units per call AND randomized returns.
        let searched = client
            .search_all(&SearchQuery::channel(channel.id.clone()))
            .expect("search succeeds");
        let search_ids: HashSet<VideoId> = searched.video_ids().into_iter().collect();

        let missing = playlist_ids.difference(&search_ids).count();
        println!("collection date {date}:");
        println!(
            "  PlaylistItems pipeline : {:3} videos  (complete catalogue)",
            playlist_ids.len()
        );
        println!(
            "  Search w/ channelId    : {:3} videos  ({} missing vs playlist)",
            search_ids.len(),
            missing
        );
    }

    println!(
        "\nQuota: search cost {} units vs {} units for the whole ID-based pipeline.",
        client.budget().units_for(ytaudit::api::Endpoint::Search),
        client.budget().units_for(ytaudit::api::Endpoint::Channels)
            + client
                .budget()
                .units_for(ytaudit::api::Endpoint::PlaylistItems),
    );
    println!(
        "The ID-based route is both cheaper and complete — the paper's\n\
         recommendation verbatim."
    );
}
