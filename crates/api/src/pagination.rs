//! Opaque page tokens and list slicing.
//!
//! Real Data API tokens (`CAUQAA`…) are opaque protobufs; ours are opaque
//! enough — an offset plus a hash of the originating query, so a token
//! replayed against a *different* query is rejected with
//! `invalidPageToken` just like the real API.

use ytaudit_types::{ApiErrorReason, Error, Result};

/// A decoded page token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageToken {
    /// Hash of the query this token belongs to.
    pub query_hash: u64,
    /// Item offset of the page this token starts.
    pub offset: usize,
}

impl PageToken {
    /// Encodes to the wire form.
    pub fn encode(&self) -> String {
        // Mixed into one string; the `CT` prefix nods to the real API's
        // base64 flavour without pretending to be it.
        format!("CT{:x}S{:016x}", self.offset, self.query_hash)
    }

    /// Decodes a wire token, validating it against the current query.
    pub fn decode(raw: &str, expected_query_hash: u64) -> Result<PageToken> {
        let bad = || {
            Error::api(
                ApiErrorReason::InvalidPageToken,
                format!("The request specifies an invalid page token: {raw:?}"),
            )
        };
        let rest = raw.strip_prefix("CT").ok_or_else(bad)?;
        let (offset_hex, hash_hex) = rest.split_once('S').ok_or_else(bad)?;
        let offset = usize::from_str_radix(offset_hex, 16).map_err(|_| bad())?;
        let query_hash = u64::from_str_radix(hash_hex, 16).map_err(|_| bad())?;
        if query_hash != expected_query_hash {
            return Err(bad());
        }
        Ok(PageToken { query_hash, offset })
    }
}

/// One page of a list plus its neighbours' tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Start index (inclusive) into the full result list.
    pub start: usize,
    /// End index (exclusive).
    pub end: usize,
    /// Token for the next page, if any items remain.
    pub next: Option<String>,
    /// Token for the previous page, if this is not the first.
    pub prev: Option<String>,
}

/// Slices a result list of `total` items into the page selected by
/// `token` (or the first page), `page_size` items at a time.
pub fn paginate(
    total: usize,
    page_size: usize,
    token: Option<&str>,
    query_hash: u64,
) -> Result<Page> {
    let offset = match token {
        Some(raw) => PageToken::decode(raw, query_hash)?.offset,
        None => 0,
    };
    if offset > total {
        return Err(Error::api(
            ApiErrorReason::InvalidPageToken,
            "The request specifies a page token past the end of the result set.",
        ));
    }
    let end = (offset + page_size).min(total);
    let next = (end < total).then(|| {
        PageToken {
            query_hash,
            offset: end,
        }
        .encode()
    });
    let prev = (offset > 0).then(|| {
        PageToken {
            query_hash,
            offset: offset.saturating_sub(page_size),
        }
        .encode()
    });
    Ok(Page {
        start: offset,
        end,
        next,
        prev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        let token = PageToken {
            query_hash: 0xDEADBEEF,
            offset: 150,
        };
        let wire = token.encode();
        assert_eq!(PageToken::decode(&wire, 0xDEADBEEF).unwrap(), token);
    }

    #[test]
    fn token_rejects_other_query() {
        let wire = PageToken {
            query_hash: 1,
            offset: 50,
        }
        .encode();
        let err = PageToken::decode(&wire, 2).unwrap_err();
        assert_eq!(err.api_reason(), Some(ApiErrorReason::InvalidPageToken));
    }

    #[test]
    fn token_rejects_garbage() {
        for raw in [
            "",
            "nonsense",
            "CT",
            "CTxxSyy",
            "CT10",
            "XY1S0000000000000001",
        ] {
            assert!(PageToken::decode(raw, 1).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn pagination_walks_the_whole_list() {
        let total = 137;
        let page_size = 50;
        let mut seen = 0;
        let mut token: Option<String> = None;
        let mut pages = 0;
        loop {
            let page = paginate(total, page_size, token.as_deref(), 9).unwrap();
            seen += page.end - page.start;
            pages += 1;
            match page.next {
                Some(next) => token = Some(next),
                None => break,
            }
        }
        assert_eq!(seen, total);
        assert_eq!(pages, 3);
    }

    #[test]
    fn pages_partition_without_overlap() {
        let total = 120;
        let first = paginate(total, 50, None, 3).unwrap();
        assert_eq!((first.start, first.end), (0, 50));
        assert!(first.prev.is_none());
        let second = paginate(total, 50, first.next.as_deref(), 3).unwrap();
        assert_eq!((second.start, second.end), (50, 100));
        assert!(second.prev.is_some());
        let third = paginate(total, 50, second.next.as_deref(), 3).unwrap();
        assert_eq!((third.start, third.end), (100, 120));
        assert!(third.next.is_none());
        // Previous token of page 2 goes back to page 1.
        let back = paginate(total, 50, second.prev.as_deref(), 3).unwrap();
        assert_eq!((back.start, back.end), (0, 50));
    }

    #[test]
    fn empty_list_has_single_empty_page() {
        let page = paginate(0, 50, None, 1).unwrap();
        assert_eq!((page.start, page.end), (0, 0));
        assert!(page.next.is_none());
        assert!(page.prev.is_none());
    }
}
