//! Typed request builders mirroring the paper's Appendix-A parameters.

use ytaudit_types::{ChannelId, Timestamp, Topic};

/// Result ordering for search queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Order {
    /// Reverse chronological — the audit's choice (immutable property).
    #[default]
    Date,
    /// The API's default relevance ordering.
    Relevance,
    /// Descending view count.
    ViewCount,
}

impl Order {
    fn as_str(self) -> &'static str {
        match self {
            Order::Date => "date",
            Order::Relevance => "relevance",
            Order::ViewCount => "viewCount",
        }
    }
}

/// A typed `Search: list` query.
#[derive(Debug, Clone, Default)]
pub struct SearchQuery {
    /// Keyword query (`q`).
    pub q: Option<String>,
    /// Channel filter.
    pub channel_id: Option<ChannelId>,
    /// `publishedAfter` bound.
    pub published_after: Option<Timestamp>,
    /// `publishedBefore` bound.
    pub published_before: Option<Timestamp>,
    /// Result ordering.
    pub order: Order,
    /// Page size (1–50).
    pub max_results: u32,
}

impl SearchQuery {
    /// A keyword query with the audit defaults (`order=date`,
    /// `maxResults=50`, `type=video`, `safeSearch=none`).
    pub fn keywords(q: impl Into<String>) -> SearchQuery {
        SearchQuery {
            q: Some(q.into()),
            max_results: 50,
            order: Order::Date,
            ..SearchQuery::default()
        }
    }

    /// The paper's exact query for one topic: its `q` string and its
    /// focal-date ± 14-day window.
    pub fn for_topic(topic: Topic) -> SearchQuery {
        SearchQuery::keywords(topic.spec().query).between(topic.window_start(), topic.window_end())
    }

    /// A channel-scoped search (the strategy §6.1 warns about).
    pub fn channel(channel_id: ChannelId) -> SearchQuery {
        SearchQuery {
            channel_id: Some(channel_id),
            max_results: 50,
            order: Order::Date,
            ..SearchQuery::default()
        }
    }

    /// Restricts to `[after, before)`.
    pub fn between(mut self, after: Timestamp, before: Timestamp) -> SearchQuery {
        self.published_after = Some(after);
        self.published_before = Some(before);
        self
    }

    /// Narrows the window to a single hour bin — the paper's
    /// "one query per hour" collection strategy.
    pub fn hour_bin(mut self, hour_start: Timestamp) -> SearchQuery {
        self.published_after = Some(hour_start);
        self.published_before = Some(hour_start.add_hours(1));
        self
    }

    /// Adds an AND term to the keyword query (the §6.1 topic-splitting
    /// lever).
    pub fn and_term(mut self, term: &str) -> SearchQuery {
        let q = self.q.get_or_insert_with(String::new);
        if !q.is_empty() {
            q.push(' ');
        }
        q.push_str(term);
        self
    }

    /// Sets the page size (clamped to 1–50).
    pub fn max_results(mut self, n: u32) -> SearchQuery {
        self.max_results = n.clamp(1, 50);
        self
    }

    /// Sets the ordering.
    pub fn order(mut self, order: Order) -> SearchQuery {
        self.order = order;
        self
    }

    /// Renders the wire parameters (without `key`/`pageToken`).
    pub fn to_params(&self) -> Vec<(String, String)> {
        let mut params = vec![
            ("part".to_string(), "snippet".to_string()),
            (
                "maxResults".to_string(),
                self.max_results.clamp(1, 50).to_string(),
            ),
            ("order".to_string(), self.order.as_str().to_string()),
            ("safeSearch".to_string(), "none".to_string()),
            ("type".to_string(), "video".to_string()),
        ];
        if let Some(q) = &self.q {
            params.push(("q".to_string(), q.clone()));
        }
        if let Some(channel) = &self.channel_id {
            params.push(("channelId".to_string(), channel.as_str().to_string()));
        }
        if let Some(after) = self.published_after {
            params.push(("publishedAfter".to_string(), after.to_rfc3339()));
        }
        if let Some(before) = self.published_before {
            params.push(("publishedBefore".to_string(), before.to_rfc3339()));
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_query_matches_appendix_a() {
        let query = SearchQuery::for_topic(Topic::Brexit);
        let params = query.to_params();
        let get = |k: &str| {
            params
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(get("q"), Some("brexit referendum"));
        assert_eq!(get("part"), Some("snippet"));
        assert_eq!(get("maxResults"), Some("50"));
        assert_eq!(get("order"), Some("date"));
        assert_eq!(get("safeSearch"), Some("none"));
        assert_eq!(get("type"), Some("video"));
        assert_eq!(get("publishedAfter"), Some("2016-06-09T00:00:00Z"));
        assert_eq!(get("publishedBefore"), Some("2016-07-07T00:00:00Z"));
    }

    #[test]
    fn hour_bin_narrows_to_one_hour() {
        let start = Timestamp::from_ymd_hms(2014, 6, 12, 17, 0, 0).unwrap();
        let query = SearchQuery::for_topic(Topic::WorldCup).hour_bin(start);
        assert_eq!(query.published_after.unwrap(), start);
        assert_eq!(query.published_before.unwrap(), start.add_hours(1));
    }

    #[test]
    fn and_term_extends_the_query() {
        let query = SearchQuery::keywords("fifa world cup").and_term("messi");
        assert_eq!(query.q.as_deref(), Some("fifa world cup messi"));
        let from_scratch = SearchQuery::default().and_term("solo");
        assert_eq!(from_scratch.q.as_deref(), Some("solo"));
    }

    #[test]
    fn max_results_is_clamped() {
        assert_eq!(SearchQuery::keywords("x").max_results(500).max_results, 50);
        assert_eq!(SearchQuery::keywords("x").max_results(0).max_results, 1);
    }

    #[test]
    fn channel_query_has_no_keywords() {
        let query = SearchQuery::channel(ChannelId::new("UCabc"));
        let params = query.to_params();
        assert!(params.iter().any(|(k, v)| k == "channelId" && v == "UCabc"));
        assert!(!params.iter().any(|(k, _)| k == "q"));
    }
}
