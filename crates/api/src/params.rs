//! Request-parameter parsing and validation for each endpoint, with the
//! real API's error reasons (`invalidParameter`, `invalidSearchFilter`).

use ytaudit_platform::{SearchOrder, SearchParams};
use ytaudit_types::topic::tokenize;
use ytaudit_types::{ApiErrorReason, ChannelId, Error, Result, Timestamp};

/// Raw key/value pairs, as they come off a query string.
pub type RawParams = [(String, String)];

/// Looks up the first value of `key`.
pub fn get<'a>(params: &'a RawParams, key: &str) -> Option<&'a str> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn invalid(name: &str, detail: impl std::fmt::Display) -> Error {
    Error::api(
        ApiErrorReason::InvalidParameter,
        format!("Invalid value for parameter {name:?}: {detail}"),
    )
}

/// Validates the `part` parameter: required, and every requested part must
/// be one of `allowed`. The parts borrow from `params`.
pub fn parse_part<'a>(params: &'a RawParams, allowed: &[&str]) -> Result<Vec<&'a str>> {
    let raw = get(params, "part").ok_or_else(|| {
        Error::api(
            ApiErrorReason::InvalidParameter,
            "Required parameter 'part' is missing.",
        )
    })?;
    let parts: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect();
    if parts.is_empty() {
        return Err(invalid("part", "no parts requested"));
    }
    for part in &parts {
        if !allowed.contains(part) {
            return Err(invalid("part", format!("unknown part {part:?}")));
        }
    }
    Ok(parts)
}

/// Parses `maxResults` with endpoint-specific default and maximum.
pub fn parse_max_results(params: &RawParams, default: u32, max: u32) -> Result<u32> {
    match get(params, "maxResults") {
        None => Ok(default),
        Some(raw) => {
            let value: u32 = raw.parse().map_err(|_| invalid("maxResults", raw))?;
            if value > max {
                return Err(invalid(
                    "maxResults",
                    format!("{value} exceeds the maximum of {max}"),
                ));
            }
            Ok(value)
        }
    }
}

/// Parses an RFC 3339 timestamp parameter.
fn parse_time(params: &RawParams, name: &str) -> Result<Option<Timestamp>> {
    match get(params, name) {
        None => Ok(None),
        Some(raw) => Timestamp::parse_rfc3339(raw)
            .map(Some)
            .map_err(|_| invalid(name, raw)),
    }
}

/// Comma-separated ID list (`id=a,b,c`), also accepting repeated `id`
/// parameters the way the real API does. The IDs borrow from `params`.
pub fn parse_id_list<'a>(params: &'a RawParams, name: &str) -> Result<Vec<&'a str>> {
    let mut ids = Vec::new();
    for (k, v) in params.iter() {
        if k == name {
            ids.extend(v.split(',').map(str::trim).filter(|s| !s.is_empty()));
        }
    }
    if ids.is_empty() {
        return Err(Error::api(
            ApiErrorReason::InvalidParameter,
            format!("Required parameter {name:?} is missing."),
        ));
    }
    if ids.len() > 50 {
        return Err(invalid(name, "at most 50 IDs per request"));
    }
    Ok(ids)
}

/// The fully validated `Search: list` request, borrowing its parts and
/// page token from the raw parameters.
#[derive(Debug, Clone)]
pub struct SearchRequest<'a> {
    /// Requested parts.
    pub parts: Vec<&'a str>,
    /// Sampler-facing parameters.
    pub search: SearchParams,
    /// Page size (1–50, default 5).
    pub max_results: u32,
    /// Raw page token.
    pub page_token: Option<&'a str>,
}

/// Parses and validates a search request.
pub fn parse_search(params: &RawParams) -> Result<SearchRequest<'_>> {
    let parts = parse_part(params, &["id", "snippet"])?;
    let max_results = parse_max_results(params, 5, 50)?;
    let order = match get(params, "order") {
        None | Some("relevance") => SearchOrder::Relevance,
        Some("date") => SearchOrder::Date,
        Some("viewCount") => SearchOrder::ViewCount,
        Some(other) => return Err(invalid("order", other)),
    };
    if let Some(kind) = get(params, "type") {
        if kind != "video" {
            // We only model video search; the real API would accept
            // channel/playlist types.
            return Err(Error::api(
                ApiErrorReason::InvalidSearchFilter,
                format!("Unsupported search type {kind:?}; this service models type=video."),
            ));
        }
    }
    if let Some(safe) = get(params, "safeSearch") {
        if !matches!(safe, "none" | "moderate" | "strict") {
            return Err(invalid("safeSearch", safe));
        }
    }
    let q = get(params, "q").unwrap_or("");
    let tokens = tokenize(q);
    let channel_id = get(params, "channelId").map(ChannelId::new);
    if tokens.is_empty() && channel_id.is_none() {
        return Err(Error::api(
            ApiErrorReason::InvalidSearchFilter,
            "A search request must specify at least a keyword query or a channelId filter.",
        ));
    }
    let published_after = parse_time(params, "publishedAfter")?;
    let published_before = parse_time(params, "publishedBefore")?;
    if let (Some(after), Some(before)) = (published_after, published_before) {
        if after >= before {
            return Err(invalid(
                "publishedAfter",
                "publishedAfter must precede publishedBefore",
            ));
        }
    }
    Ok(SearchRequest {
        parts,
        search: SearchParams {
            tokens,
            published_after,
            published_before,
            channel_id,
            order,
        },
        max_results,
        page_token: get(params, "pageToken"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parses_the_papers_exact_query() {
        // Appendix A's general parameters.
        let params = raw(&[
            ("part", "snippet"),
            ("maxResults", "50"),
            ("order", "date"),
            ("safeSearch", "none"),
            ("publishedAfter", "2016-06-09T00:00:00Z"),
            ("publishedBefore", "2016-07-07T00:00:00Z"),
            ("type", "video"),
            ("q", "brexit referendum"),
        ]);
        let req = parse_search(&params).unwrap();
        assert_eq!(req.max_results, 50);
        assert_eq!(req.search.order, SearchOrder::Date);
        assert_eq!(req.search.tokens, vec!["brexit", "referendum"]);
        assert_eq!(
            req.search.published_after.unwrap().to_rfc3339(),
            "2016-06-09T00:00:00Z"
        );
        assert!(req.search.channel_id.is_none());
    }

    #[test]
    fn part_is_required() {
        let err = parse_search(&raw(&[("q", "x")])).unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::InvalidParameter));
        let err2 = parse_part(&raw(&[("part", "nonsense")]), &["snippet"]).unwrap_err();
        assert_eq!(err2.api_reason(), Some(ApiErrorReason::InvalidParameter));
        assert!(parse_part(&raw(&[("part", "snippet,id")]), &["id", "snippet"]).is_ok());
    }

    #[test]
    fn max_results_bounds() {
        assert_eq!(parse_max_results(&raw(&[]), 5, 50).unwrap(), 5);
        assert_eq!(
            parse_max_results(&raw(&[("maxResults", "50")]), 5, 50).unwrap(),
            50
        );
        assert!(parse_max_results(&raw(&[("maxResults", "51")]), 5, 50).is_err());
        assert!(parse_max_results(&raw(&[("maxResults", "-1")]), 5, 50).is_err());
        assert!(parse_max_results(&raw(&[("maxResults", "abc")]), 5, 50).is_err());
    }

    #[test]
    fn rejects_bad_filters() {
        // Neither q nor channelId.
        let err = parse_search(&raw(&[("part", "snippet")])).unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::InvalidSearchFilter));
        // Unsupported type.
        let err = parse_search(&raw(&[
            ("part", "snippet"),
            ("q", "x"),
            ("type", "playlist"),
        ]))
        .unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::InvalidSearchFilter));
        // Bad order.
        assert!(parse_search(&raw(&[
            ("part", "snippet"),
            ("q", "x"),
            ("order", "rating0")
        ]))
        .is_err());
        // Bad timestamps.
        assert!(parse_search(&raw(&[
            ("part", "snippet"),
            ("q", "x"),
            ("publishedAfter", "yesterday")
        ]))
        .is_err());
        // Inverted window.
        assert!(parse_search(&raw(&[
            ("part", "snippet"),
            ("q", "x"),
            ("publishedAfter", "2020-01-02T00:00:00Z"),
            ("publishedBefore", "2020-01-01T00:00:00Z"),
        ]))
        .is_err());
    }

    #[test]
    fn channel_only_search_is_allowed() {
        let params = raw(&[("part", "id"), ("channelId", "UCabc")]);
        let req = parse_search(&params).unwrap();
        assert!(req.search.tokens.is_empty());
        assert_eq!(req.search.channel_id.unwrap().as_str(), "UCabc");
    }

    #[test]
    fn id_lists_parse_both_styles() {
        let params = raw(&[("id", "a,b"), ("id", "c")]);
        let ids = parse_id_list(&params, "id").unwrap();
        assert_eq!(ids, vec!["a", "b", "c"]);
        assert!(parse_id_list(&raw(&[]), "id").is_err());
        let many: Vec<(String, String)> = (0..51)
            .map(|i| ("id".to_string(), format!("v{i}")))
            .collect();
        assert!(parse_id_list(&many, "id").is_err());
    }
}
