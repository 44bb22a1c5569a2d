//! Shared harness helpers: spin up a platform + service + client without
//! boilerplate. Used by unit tests, integration tests, examples, and the
//! bench binaries.

use std::sync::Arc;
use ytaudit_api::service::{ApiService, FaultConfig};
use ytaudit_client::{InProcessTransport, YouTubeClient};
use ytaudit_platform::{Corpus, CorpusConfig, Platform, SimClock};

/// A ready-to-collect in-process client over a reduced-scale platform,
/// with a researcher-sized quota. `scale` multiplies the corpus size
/// (1.0 = full audit scale).
pub fn test_client(scale: f64) -> (YouTubeClient, Arc<ApiService>) {
    client_for(Platform::small(scale), FaultConfig::default())
}

/// Same, but with explicit fault injection.
pub fn test_client_with_faults(
    scale: f64,
    faults: FaultConfig,
) -> (YouTubeClient, Arc<ApiService>) {
    client_for(Platform::small(scale), faults)
}

/// A full-scale platform client (used by the bench binaries that
/// regenerate the paper's tables).
pub fn full_scale_client() -> (YouTubeClient, Arc<ApiService>) {
    client_for(Platform::with_default_corpus(), FaultConfig::default())
}

/// A full-scale client over a platform with a custom seed (for
/// seed-sensitivity checks).
pub fn full_scale_client_with_seed(seed: u64) -> (YouTubeClient, Arc<ApiService>) {
    test_client_with_seed(1.0, seed)
}

/// A reduced-scale client with a custom seed.
pub fn test_client_with_seed(scale: f64, seed: u64) -> (YouTubeClient, Arc<ApiService>) {
    let platform = Platform::new(Corpus::generate(CorpusConfig {
        seed,
        scale,
        ..CorpusConfig::default()
    }));
    client_for(platform, FaultConfig::default())
}

fn client_for(platform: Platform, faults: FaultConfig) -> (YouTubeClient, Arc<ApiService>) {
    let service = Arc::new(
        ApiService::new(Arc::new(platform), SimClock::at_audit_start()).with_faults(faults),
    );
    service
        .quota()
        .register("research-key", ytaudit_api::RESEARCHER_DAILY_QUOTA * 1_000);
    let client = YouTubeClient::new(
        Box::new(InProcessTransport::new(Arc::clone(&service))),
        "research-key",
    );
    (client, service)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ytaudit_client::SearchQuery;
    use ytaudit_types::Topic;

    #[test]
    fn harness_is_ready_to_query() {
        let (client, service) = test_client(0.1);
        client.set_sim_time(Some(service.clock().now()));
        let page = client
            .search_page(&SearchQuery::for_topic(Topic::Higgs).max_results(10), None)
            .unwrap();
        assert!(page.page_info.total_results > 1_000);
    }
}
