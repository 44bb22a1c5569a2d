//! Property tests for the civil-time and identifier primitives: plain
//! `#[test]`s over random cases from `ytaudit_types::kit::check`, so CI
//! rotates them with `YTAUDIT_PROP_SEED` and a failure names the value
//! and case to reproduce with.

use ytaudit_types::kit::check;
use ytaudit_types::time::{days_in_month, CivilDate, HOUR};
use ytaudit_types::{ChannelId, CommentId, IsoDuration, Timestamp, VideoId};

/// Random cases per property.
const CASES: usize = 256;

/// Any in-range timestamp formats to RFC 3339 and parses back exactly.
#[test]
fn rfc3339_round_trip() {
    check(CASES, 1, |rng| {
        let ts = Timestamp(rng.range(-4_000_000_000, 10_000_000_000));
        let text = ts.to_rfc3339();
        assert_eq!(Timestamp::parse_rfc3339(&text).unwrap(), ts);
    });
}

/// Civil date <-> day-count conversion is a bijection.
#[test]
fn civil_date_round_trip() {
    check(CASES, 2, |rng| {
        let days = rng.range(-1_000_000, 1_000_000);
        let date = CivilDate::from_days_since_epoch(days);
        assert_eq!(date.days_since_epoch(), days);
        // And the components are always in range.
        assert!((1..=12).contains(&date.month()));
        assert!(date.day() >= 1 && date.day() <= days_in_month(date.year(), date.month()));
    });
}

/// Consecutive day counts yield consecutive civil dates.
#[test]
fn civil_dates_are_monotone() {
    check(CASES, 3, |rng| {
        let days = rng.range(-1_000_000, 1_000_000);
        let a = CivilDate::from_days_since_epoch(days);
        let b = CivilDate::from_days_since_epoch(days + 1);
        assert!(b > a, "{a} then {b}");
    });
}

/// ISO-8601 durations round-trip through their canonical rendering.
#[test]
fn duration_round_trip() {
    check(CASES, 4, |rng| {
        let d = IsoDuration::from_secs(rng.range(0, 100_000_000) as u64);
        assert_eq!(IsoDuration::parse(&d.format()).unwrap(), d);
    });
}

/// floor_hour always lands on an hour boundary at or before the input,
/// less than one hour away.
#[test]
fn floor_hour_properties() {
    check(CASES, 5, |rng| {
        let ts = Timestamp(rng.range(-10_000_000_000, 10_000_000_000));
        let floored = ts.floor_hour();
        assert!(floored <= ts);
        assert!(ts.as_secs() - floored.as_secs() < HOUR);
        assert_eq!(floored.as_secs().rem_euclid(HOUR), 0);
    });
}

/// hours_since tiles the timeline: every instant falls in exactly one
/// hourly bin relative to any origin.
#[test]
fn hour_bins_tile() {
    check(CASES, 6, |rng| {
        let origin = Timestamp(rng.range(-1_000_000, 1_000_000) * 977);
        let ts = Timestamp(origin.as_secs() + rng.range(-1_000_000, 1_000_000));
        let bin = ts.hours_since(origin);
        let bin_start = origin.as_secs() + bin * HOUR;
        assert!(bin_start <= ts.as_secs());
        assert!(ts.as_secs() < bin_start + HOUR);
    });
}

/// Minted identifiers are deterministic in (seed, index) and extremely
/// unlikely to collide across nearby indices.
fn id_minting_case(seed: u64, index: u64) {
    assert_eq!(VideoId::mint(seed, index), VideoId::mint(seed, index));
    assert_ne!(VideoId::mint(seed, index), VideoId::mint(seed, index + 1));
    assert_eq!(ChannelId::mint(seed, index), ChannelId::mint(seed, index));
}

#[test]
fn id_minting_deterministic() {
    check(CASES, 7, |rng| {
        id_minting_case(rng.next(), rng.range(0, 1_000_000) as u64)
    });
}

/// A case a shrinker once reduced an ID-minting failure to.
#[test]
fn id_minting_pinned_case() {
    id_minting_case(4_876_036_691_110_918_229, 61_110);
}

/// Reply IDs always recover their parent.
#[test]
fn reply_parent_round_trip() {
    check(CASES, 8, |rng| {
        let parent = CommentId::mint_top_level(rng.next(), rng.range(0, 10_000) as u64);
        let child = parent.mint_reply(rng.range(0, 100) as u64);
        assert_eq!(child.parent().unwrap(), parent);
    });
}

/// Uploads playlists round-trip to their channel.
#[test]
fn uploads_playlist_round_trip() {
    check(CASES, 9, |rng| {
        let channel = ChannelId::mint(rng.next(), rng.range(0, 100_000) as u64);
        assert_eq!(
            channel.uploads_playlist().uploads_channel().unwrap(),
            channel
        );
    });
}
