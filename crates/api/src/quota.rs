//! Quota accounting — the economics that make the paper's strategy advice
//! matter.
//!
//! The real API charges 100 units per `Search: list` call against a
//! default daily budget of 10,000 (so 100 searches/day), while ID-based
//! endpoints cost 1 unit. A full paper-style collection is 4,032 search
//! calls = 403,200 units — far beyond a default key, which is why the
//! researcher program (higher quotas) exists and why "token economy" is a
//! first-class concern. The ledger resets at midnight Pacific time,
//! modelled as a fixed UTC−7 offset (DST is ignored and documented).

use parking_lot::Mutex;
use std::collections::HashMap;
use ytaudit_types::time::{DAY, HOUR};
use ytaudit_types::Timestamp;

/// Quota cost of one call per endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// `Search: list` — 100 units.
    Search,
    /// `Videos: list` — 1 unit.
    Videos,
    /// `Channels: list` — 1 unit.
    Channels,
    /// `PlaylistItems: list` — 1 unit.
    PlaylistItems,
    /// `CommentThreads: list` — 1 unit.
    CommentThreads,
    /// `Comments: list` — 1 unit.
    Comments,
}

impl Endpoint {
    /// Every endpoint, in declaration order, so `endpoint as usize`
    /// indexes per-endpoint tables.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Search,
        Endpoint::Videos,
        Endpoint::Channels,
        Endpoint::PlaylistItems,
        Endpoint::CommentThreads,
        Endpoint::Comments,
    ];

    /// The documented quota cost. Every endpoint is priced explicitly —
    /// the `quota-consistency` lint rejects a wildcard arm here so a new
    /// endpoint cannot silently inherit a price.
    pub fn cost(self) -> u64 {
        match self {
            Endpoint::Search => 100,
            Endpoint::Videos => 1,
            Endpoint::Channels => 1,
            Endpoint::PlaylistItems => 1,
            Endpoint::CommentThreads => 1,
            Endpoint::Comments => 1,
        }
    }

    /// The URL path segment under `/youtube/v3/`.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Search => "search",
            Endpoint::Videos => "videos",
            Endpoint::Channels => "channels",
            Endpoint::PlaylistItems => "playlistItems",
            Endpoint::CommentThreads => "commentThreads",
            Endpoint::Comments => "comments",
        }
    }
}

/// The default daily quota of a newly created API client.
pub const DEFAULT_DAILY_QUOTA: u64 = 10_000;

/// The elevated quota of a researcher-program key (illustrative value;
/// actual grants vary).
pub const RESEARCHER_DAILY_QUOTA: u64 = 1_000_000;

/// Pacific time approximated as a fixed UTC−7 offset.
const PACIFIC_OFFSET: i64 = -7 * HOUR;

/// Returns the Pacific-midnight day index containing `t`.
fn pacific_day(t: Timestamp) -> i64 {
    (t.as_secs() + PACIFIC_OFFSET).div_euclid(DAY)
}

#[derive(Debug, Clone)]
struct KeyState {
    daily_limit: u64,
    used_today: u64,
    day: i64,
    lifetime_used: u64,
}

/// A thread-safe per-key quota ledger.
pub struct QuotaLedger {
    keys: Mutex<HashMap<String, KeyState>>,
    /// Limit assigned to keys seen for the first time.
    default_limit: u64,
}

/// The result of charging a quota cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// The call was charged; remaining units today.
    Ok {
        /// Units left for the rest of the Pacific day.
        remaining: u64,
    },
    /// The daily budget cannot cover the call.
    Exceeded,
}

impl QuotaLedger {
    /// A ledger that grants `DEFAULT_DAILY_QUOTA` to unknown keys.
    pub fn new() -> QuotaLedger {
        QuotaLedger {
            keys: Mutex::new(HashMap::new()),
            default_limit: DEFAULT_DAILY_QUOTA,
        }
    }

    /// A ledger granting a custom default limit to unknown keys.
    pub fn with_default_limit(limit: u64) -> QuotaLedger {
        QuotaLedger {
            keys: Mutex::new(HashMap::new()),
            default_limit: limit,
        }
    }

    /// Registers (or updates) a key with an explicit daily limit — e.g.
    /// [`RESEARCHER_DAILY_QUOTA`] for a vetted research key.
    pub fn register(&self, key: &str, daily_limit: u64) {
        let mut keys = self.keys.lock();
        let state = keys.entry(key.to_string()).or_insert(KeyState {
            daily_limit,
            used_today: 0,
            day: i64::MIN,
            lifetime_used: 0,
        });
        state.daily_limit = daily_limit;
    }

    /// Attempts to charge `endpoint.cost()` units to `key` at simulated
    /// instant `now`.
    pub fn charge(&self, key: &str, endpoint: Endpoint, now: Timestamp) -> Charge {
        let mut keys = self.keys.lock();
        // A known key is found by reference; only a new key is copied.
        if !keys.contains_key(key) {
            keys.insert(
                key.to_string(),
                KeyState {
                    daily_limit: self.default_limit,
                    used_today: 0,
                    day: i64::MIN,
                    lifetime_used: 0,
                },
            );
        }
        let Some(state) = keys.get_mut(key) else {
            return Charge::Exceeded;
        };
        let today = pacific_day(now);
        if state.day != today {
            state.day = today;
            state.used_today = 0;
        }
        let cost = endpoint.cost();
        if state.used_today + cost > state.daily_limit {
            return Charge::Exceeded;
        }
        state.used_today += cost;
        state.lifetime_used += cost;
        Charge::Ok {
            remaining: state.daily_limit - state.used_today,
        }
    }

    /// Units used today by `key` (0 for unknown keys).
    pub fn used_today(&self, key: &str, now: Timestamp) -> u64 {
        let keys = self.keys.lock();
        match keys.get(key) {
            Some(state) if state.day == pacific_day(now) => state.used_today,
            _ => 0,
        }
    }

    /// Lifetime units used by `key`.
    pub fn lifetime_used(&self, key: &str) -> u64 {
        self.keys.lock().get(key).map_or(0, |s| s.lifetime_used)
    }
}

impl Default for QuotaLedger {
    fn default() -> QuotaLedger {
        QuotaLedger::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> Timestamp {
        Timestamp::from_ymd_hms(2025, 2, 9, 12, 0, 0).unwrap()
    }

    #[test]
    fn costs_match_documentation() {
        assert_eq!(Endpoint::Search.cost(), 100);
        assert_eq!(Endpoint::Videos.cost(), 1);
        assert_eq!(Endpoint::CommentThreads.cost(), 1);
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, endpoint) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(*endpoint as usize, i);
        }
    }

    #[test]
    fn default_key_allows_100_searches_per_day() {
        let ledger = QuotaLedger::new();
        for i in 0..100 {
            match ledger.charge("k", Endpoint::Search, t0()) {
                Charge::Ok { remaining } => assert_eq!(remaining, 10_000 - 100 * (i + 1)),
                Charge::Exceeded => panic!("exceeded at search {i}"),
            }
        }
        assert_eq!(ledger.charge("k", Endpoint::Search, t0()), Charge::Exceeded);
        // ID-based calls still fail once the bucket is empty...
        assert_eq!(ledger.used_today("k", t0()), 10_000);
        assert_eq!(ledger.charge("k", Endpoint::Videos, t0()), Charge::Exceeded);
    }

    #[test]
    fn id_endpoints_are_cheap() {
        let ledger = QuotaLedger::new();
        for _ in 0..9_999 {
            assert!(matches!(
                ledger.charge("k", Endpoint::Videos, t0()),
                Charge::Ok { .. }
            ));
        }
        // One search no longer fits (9 999 + 100 > 10 000)…
        assert_eq!(ledger.charge("k", Endpoint::Search, t0()), Charge::Exceeded);
        // …but one more unit call does.
        assert!(matches!(
            ledger.charge("k", Endpoint::Comments, t0()),
            Charge::Ok { .. }
        ));
    }

    #[test]
    fn quota_resets_at_pacific_midnight() {
        let ledger = QuotaLedger::new();
        // Exhaust on day 1.
        for _ in 0..100 {
            ledger.charge("k", Endpoint::Search, t0());
        }
        assert_eq!(ledger.charge("k", Endpoint::Search, t0()), Charge::Exceeded);
        // 06:59 UTC next day is still the same Pacific day (UTC−7).
        let before_reset = Timestamp::from_ymd_hms(2025, 2, 10, 6, 59, 0).unwrap();
        assert_eq!(
            ledger.charge("k", Endpoint::Search, before_reset),
            Charge::Exceeded
        );
        // 07:00 UTC is Pacific midnight: fresh budget.
        let after_reset = Timestamp::from_ymd_hms(2025, 2, 10, 7, 0, 0).unwrap();
        assert!(matches!(
            ledger.charge("k", Endpoint::Search, after_reset),
            Charge::Ok { .. }
        ));
        assert_eq!(ledger.used_today("k", after_reset), 100);
        assert_eq!(ledger.lifetime_used("k"), 10_100);
    }

    #[test]
    fn researcher_keys_get_bigger_budgets() {
        let ledger = QuotaLedger::new();
        ledger.register("research", RESEARCHER_DAILY_QUOTA);
        // A full paper-style collection: 4 032 searches = 403 200 units.
        for i in 0..4_032 {
            assert!(
                matches!(
                    ledger.charge("research", Endpoint::Search, t0()),
                    Charge::Ok { .. }
                ),
                "failed at search {i}"
            );
        }
        assert_eq!(ledger.used_today("research", t0()), 403_200);
    }

    #[test]
    fn keys_are_independent() {
        let ledger = QuotaLedger::new();
        for _ in 0..100 {
            ledger.charge("a", Endpoint::Search, t0());
        }
        assert_eq!(ledger.charge("a", Endpoint::Search, t0()), Charge::Exceeded);
        assert!(matches!(
            ledger.charge("b", Endpoint::Search, t0()),
            Charge::Ok { .. }
        ));
    }
}
