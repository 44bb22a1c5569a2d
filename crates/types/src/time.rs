//! Civil time for the audit: UTC timestamps, calendar conversion, RFC 3339
//! text, and ISO-8601 video durations.
//!
//! The YouTube Data API exchanges instants as RFC 3339 strings
//! (`2020-05-25T00:00:00Z`) and video lengths as ISO-8601 durations
//! (`PT4M13S`). The audit itself reasons in whole hours and days around each
//! topic's focal date. This module implements exactly that slice of civil
//! time on top of a single `i64` count of seconds since the Unix epoch,
//! using Howard Hinnant's proleptic-Gregorian date algorithms.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Seconds in one minute.
pub const MINUTE: i64 = 60;
/// Seconds in one hour.
pub const HOUR: i64 = 60 * MINUTE;
/// Seconds in one civil day.
pub const DAY: i64 = 24 * HOUR;
/// Seconds in one week.
pub const WEEK: i64 = 7 * DAY;

/// An instant in time, measured in whole seconds since the Unix epoch
/// (1970-01-01T00:00:00Z), always interpreted in UTC.
///
/// The audit never needs sub-second precision: the API's `publishedAfter` /
/// `publishedBefore` filters operate on second granularity and the
/// collection harness bins queries by hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The Unix epoch itself.
    pub const UNIX_EPOCH: Timestamp = Timestamp(0);

    /// Builds a timestamp from a calendar date and time-of-day (UTC).
    ///
    /// Returns an error if the date is not a valid proleptic-Gregorian date
    /// or the time-of-day is out of range.
    pub fn from_ymd_hms(y: i32, m: u32, d: u32, h: u32, min: u32, s: u32) -> Result<Timestamp> {
        let date = CivilDate::new(y, m, d)?;
        if h > 23 || min > 59 || s > 59 {
            return Err(Error::InvalidTime(format!(
                "{h:02}:{min:02}:{s:02} out of range"
            )));
        }
        Ok(Timestamp(
            date.days_since_epoch() * DAY
                + i64::from(h) * HOUR
                + i64::from(min) * MINUTE
                + i64::from(s),
        ))
    }

    /// Convenience constructor for midnight UTC of a calendar date.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Result<Timestamp> {
        Timestamp::from_ymd_hms(y, m, d, 0, 0, 0)
    }

    /// Midnight UTC of a calendar date, for literal dates known at
    /// compile time (the audit's focal dates, fixture corpora).
    ///
    /// Used in `const` position an invalid date fails the build instead
    /// of panicking at run time, which is how collection plans pin their
    /// dates without putting an `expect` on the hot path.
    #[allow(clippy::panic)]
    pub const fn from_ymd_const(y: i32, m: u32, d: u32) -> Timestamp {
        if m == 0 || m > 12 || d == 0 || d > days_in_month(y, m) {
            // ytlint: allow(panics) — const evaluation reports this at compile time
            panic!("invalid calendar date literal");
        }
        Timestamp(days_from_civil(y, m, d) * DAY)
    }

    /// Compile-time variant of [`from_ymd_hms`](Self::from_ymd_hms) for
    /// literal instants. Same `const`-position guarantee as
    /// [`from_ymd_const`](Self::from_ymd_const).
    #[allow(clippy::panic)]
    pub const fn from_ymd_hms_const(y: i32, m: u32, d: u32, h: u32, min: u32, s: u32) -> Timestamp {
        if h > 23 || min > 59 || s > 59 {
            // ytlint: allow(panics) — const evaluation reports this at compile time
            panic!("time-of-day literal out of range");
        }
        Timestamp(
            Timestamp::from_ymd_const(y, m, d).0 + h as i64 * HOUR + min as i64 * MINUTE + s as i64,
        )
    }

    /// Parses an RFC 3339 timestamp such as `2016-06-23T00:00:00Z`.
    ///
    /// Accepts an optional fractional-second part (which the real API emits
    /// as `.000Z` on some resources) and either `Z` or a `±hh:mm` offset;
    /// offsets are normalized to UTC. Fractional seconds are truncated.
    pub fn parse_rfc3339(text: &str) -> Result<Timestamp> {
        let civil = CivilDateTime::parse_rfc3339(text)?;
        Ok(civil.to_timestamp())
    }

    /// Formats the timestamp as RFC 3339 with a trailing `Z`, e.g.
    /// `2012-07-04T09:30:00Z` — the exact shape the Data API uses.
    pub fn to_rfc3339(self) -> String {
        let mut out = String::with_capacity(20);
        // Writing to a `String` cannot fail.
        let _ = self.write_rfc3339(&mut out);
        out
    }

    /// Writes the [`to_rfc3339`](Self::to_rfc3339) text to `out` in
    /// place, without formatting a temporary.
    pub fn write_rfc3339<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        self.to_civil().write_rfc3339(out)
    }

    /// Decomposes the timestamp into calendar date and time-of-day.
    pub fn to_civil(self) -> CivilDateTime {
        let days = self.0.div_euclid(DAY);
        let secs_of_day = self.0.rem_euclid(DAY);
        let date = CivilDate::from_days_since_epoch(days);
        CivilDateTime {
            date,
            hour: (secs_of_day / HOUR) as u32,
            minute: ((secs_of_day % HOUR) / MINUTE) as u32,
            second: (secs_of_day % MINUTE) as u32,
        }
    }

    /// Raw seconds since the Unix epoch.
    pub fn as_secs(self) -> i64 {
        self.0
    }

    /// Truncates to the start of the containing UTC hour.
    pub fn floor_hour(self) -> Timestamp {
        Timestamp(self.0.div_euclid(HOUR) * HOUR)
    }

    /// Truncates to midnight UTC of the containing day.
    pub fn floor_day(self) -> Timestamp {
        Timestamp(self.0.div_euclid(DAY) * DAY)
    }

    /// Adds a whole number of days (may be negative).
    pub fn add_days(self, days: i64) -> Timestamp {
        Timestamp(self.0 + days * DAY)
    }

    /// Adds a whole number of hours (may be negative).
    pub fn add_hours(self, hours: i64) -> Timestamp {
        Timestamp(self.0 + hours * HOUR)
    }

    /// Signed difference `self − other` in whole hours, truncated toward
    /// negative infinity so hour bins tile the timeline without gaps.
    pub fn hours_since(self, other: Timestamp) -> i64 {
        (self.0 - other.0).div_euclid(HOUR)
    }

    /// Signed difference `self − other` in whole days, truncated toward
    /// negative infinity.
    pub fn days_since(self, other: Timestamp) -> i64 {
        (self.0 - other.0).div_euclid(DAY)
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;
    /// Adds raw seconds.
    fn add(self, rhs: i64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;
    /// Difference in raw seconds.
    fn sub(self, rhs: Timestamp) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_rfc3339(f)
    }
}

/// A proleptic-Gregorian calendar date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    year: i32,
    month: u32,
    day: u32,
}

impl CivilDate {
    /// Validates and constructs a calendar date.
    pub fn new(year: i32, month: u32, day: u32) -> Result<CivilDate> {
        if !(1..=12).contains(&month) {
            return Err(Error::InvalidTime(format!("month {month} out of range")));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(Error::InvalidTime(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        Ok(CivilDate { year, month, day })
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year
    }

    /// Month component, 1–12.
    pub fn month(self) -> u32 {
        self.month
    }

    /// Day-of-month component, 1–31.
    pub fn day(self) -> u32 {
        self.day
    }

    /// Days since 1970-01-01 (negative before the epoch).
    ///
    /// Howard Hinnant's `days_from_civil` algorithm.
    pub fn days_since_epoch(self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Inverse of [`days_since_epoch`](Self::days_since_epoch)
    /// (Hinnant's `civil_from_days`).
    pub fn from_days_since_epoch(days: i64) -> CivilDate {
        let z = days + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
        CivilDate {
            year: (y + i64::from(m <= 2)) as i32,
            month: m as u32,
            day: d as u32,
        }
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Days since 1970-01-01 for an (assumed valid) civil date — Howard
/// Hinnant's `days_from_civil`, written with `const`-compatible
/// arithmetic so compile-time date literals can use it too.
const fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = year as i64 - if month <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Whether `year` is a leap year in the proleptic-Gregorian calendar.
pub const fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Number of days in `month` of `year`.
pub const fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Writes the low `width` decimal digits of `n`, zero-padded. The
/// in-range years of [`CivilDateTime::write_rfc3339`] take this path
/// rather than `write!`, which measured slower (DESIGN §17).
fn push_digits<W: fmt::Write + ?Sized>(out: &mut W, n: u32, width: u32) -> fmt::Result {
    for place in (0..width).rev() {
        let digit = (n / 10u32.pow(place)) % 10;
        out.write_char(char::from(b'0' + digit as u8))?;
    }
    Ok(())
}

/// A calendar date plus a time-of-day, always UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDateTime {
    /// The calendar date.
    pub date: CivilDate,
    /// Hour of day, 0–23.
    pub hour: u32,
    /// Minute, 0–59.
    pub minute: u32,
    /// Second, 0–59 (leap seconds are not modelled; the Data API never
    /// emits them).
    pub second: u32,
}

impl CivilDateTime {
    /// Converts back to seconds since the Unix epoch.
    pub fn to_timestamp(self) -> Timestamp {
        Timestamp(
            self.date.days_since_epoch() * DAY
                + i64::from(self.hour) * HOUR
                + i64::from(self.minute) * MINUTE
                + i64::from(self.second),
        )
    }

    /// Formats as RFC 3339 with a `Z` suffix.
    pub fn format_rfc3339(self) -> String {
        let mut out = String::with_capacity(20);
        // Writing to a `String` cannot fail.
        let _ = self.write_rfc3339(&mut out);
        out
    }

    /// Writes the [`format_rfc3339`](Self::format_rfc3339) text to `out`:
    /// `YYYY-MM-DDTHH:MM:SSZ`, the year zero-padded to four places.
    pub fn write_rfc3339<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        let year = self.date.year();
        if (0..=9999).contains(&year) {
            push_digits(out, year.unsigned_abs(), 4)?;
        } else {
            write!(out, "{year:04}")?;
        }
        out.write_char('-')?;
        push_digits(out, self.date.month(), 2)?;
        out.write_char('-')?;
        push_digits(out, self.date.day(), 2)?;
        out.write_char('T')?;
        push_digits(out, self.hour, 2)?;
        out.write_char(':')?;
        push_digits(out, self.minute, 2)?;
        out.write_char(':')?;
        push_digits(out, self.second, 2)?;
        out.write_char('Z')
    }

    /// Parses RFC 3339 text. See [`Timestamp::parse_rfc3339`] for the
    /// accepted grammar.
    pub fn parse_rfc3339(text: &str) -> Result<CivilDateTime> {
        let bytes = text.as_bytes();
        let bad = || Error::InvalidTime(format!("malformed RFC 3339 timestamp: {text:?}"));
        if bytes.len() < 20 {
            return Err(bad());
        }
        let digits = |range: std::ops::Range<usize>| -> Result<i64> {
            let slice = bytes.get(range).ok_or_else(bad)?;
            if slice.is_empty() || !slice.iter().all(u8::is_ascii_digit) {
                return Err(bad());
            }
            let mut v: i64 = 0;
            for &b in slice {
                v = v * 10 + i64::from(b - b'0');
            }
            Ok(v)
        };
        let expect = |idx: usize, ch: u8| -> Result<()> {
            // `T`/`t` and `Z`/`z` are case-insensitive per RFC 3339; the
            // separators are exact.
            let got = *bytes.get(idx).ok_or_else(bad)?;
            let ok = got == ch || (matches!(ch, b'T' | b'Z') && got == ch + 32);
            if ok {
                Ok(())
            } else {
                Err(bad())
            }
        };
        let year = digits(0..4)? as i32;
        expect(4, b'-')?;
        let month = digits(5..7)? as u32;
        expect(7, b'-')?;
        let day = digits(8..10)? as u32;
        expect(10, b'T')?;
        let hour = digits(11..13)? as u32;
        expect(13, b':')?;
        let minute = digits(14..16)? as u32;
        expect(16, b':')?;
        let second = digits(17..19)? as u32;
        // Optional fraction, then Z or ±hh:mm.
        let mut idx = 19;
        if bytes.get(idx) == Some(&b'.') {
            idx += 1;
            let start = idx;
            while bytes.get(idx).is_some_and(u8::is_ascii_digit) {
                idx += 1;
            }
            if idx == start {
                return Err(bad());
            }
        }
        let offset_secs: i64 = match bytes.get(idx) {
            Some(b'Z') | Some(b'z') => {
                if idx + 1 != bytes.len() {
                    return Err(bad());
                }
                0
            }
            Some(sign @ (b'+' | b'-')) => {
                let oh = digits(idx + 1..idx + 3)?;
                expect(idx + 3, b':')?;
                let om = digits(idx + 4..idx + 6)?;
                if idx + 6 != bytes.len() || oh > 23 || om > 59 {
                    return Err(bad());
                }
                let magnitude = oh * HOUR + om * MINUTE;
                if *sign == b'+' {
                    magnitude
                } else {
                    -magnitude
                }
            }
            _ => return Err(bad()),
        };
        if hour > 23 || minute > 59 || second > 59 {
            return Err(bad());
        }
        let date = CivilDate::new(year, month, day)?;
        let local = CivilDateTime {
            date,
            hour,
            minute,
            second,
        };
        // Normalize to UTC by subtracting the offset.
        Ok(Timestamp(local.to_timestamp().0 - offset_secs).to_civil())
    }
}

impl fmt::Display for CivilDateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_rfc3339(f)
    }
}

/// A video length as the Data API reports it: an ISO-8601 duration limited
/// to day/hour/minute/second designators, e.g. `PT4M13S` or `P1DT2H`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IsoDuration(pub u64);

impl IsoDuration {
    /// Builds a duration from a whole number of seconds.
    pub fn from_secs(secs: u64) -> IsoDuration {
        IsoDuration(secs)
    }

    /// Total seconds.
    pub fn as_secs(self) -> u64 {
        self.0
    }

    /// Parses the `P[nD]T[nH][nM][nS]` subset of ISO-8601 durations used by
    /// the Data API. Designators must appear in order and at least one must
    /// be present; `P0D` and `PT0S` both parse to zero.
    pub fn parse(text: &str) -> Result<IsoDuration> {
        let bad = || Error::InvalidTime(format!("malformed ISO-8601 duration: {text:?}"));
        let bytes = text.as_bytes();
        if bytes.first() != Some(&b'P') {
            return Err(bad());
        }
        let mut idx = 1;
        let mut total: u64 = 0;
        let mut in_time = false;
        let mut seen_any = false;
        // Designator ranks enforce ordering: D < (T) < H < M < S.
        let mut last_rank = 0u8;
        while idx < bytes.len() {
            if bytes[idx] == b'T' {
                if in_time {
                    return Err(bad());
                }
                in_time = true;
                last_rank = 1;
                idx += 1;
                continue;
            }
            let start = idx;
            while idx < bytes.len() && bytes[idx].is_ascii_digit() {
                idx += 1;
            }
            if start == idx || idx == bytes.len() {
                return Err(bad());
            }
            let value: u64 = text[start..idx].parse().map_err(|_| bad())?;
            let designator = bytes[idx];
            idx += 1;
            let (rank, mult) = match (designator, in_time) {
                (b'D', false) => (0, 86_400),
                (b'H', true) => (2, 3_600),
                (b'M', true) => (3, 60),
                (b'S', true) => (4, 1),
                _ => return Err(bad()),
            };
            if rank < last_rank {
                return Err(bad());
            }
            last_rank = rank + 1;
            total = total
                .checked_add(value.checked_mul(mult).ok_or_else(bad)?)
                .ok_or_else(bad)?;
            seen_any = true;
        }
        if !seen_any {
            return Err(bad());
        }
        Ok(IsoDuration(total))
    }

    /// Canonical Data-API-style rendering: days only when ≥ 1 day, zero
    /// renders as `PT0S`, e.g. `PT1H2M3S`.
    pub fn format(self) -> String {
        let mut out = String::with_capacity(12);
        self.write(&mut out);
        out
    }

    /// Appends the [`format`](Self::format) text to `out`.
    pub fn write(self, out: &mut String) {
        let mut s = self.0;
        let days = s / 86_400;
        s %= 86_400;
        let hours = s / 3_600;
        s %= 3_600;
        let minutes = s / 60;
        let seconds = s % 60;
        out.push('P');
        if days > 0 {
            crate::json::write_u64(out, days);
            out.push('D');
        }
        if hours > 0 || minutes > 0 || seconds > 0 || days == 0 {
            out.push('T');
            if hours > 0 {
                crate::json::write_u64(out, hours);
                out.push('H');
            }
            if minutes > 0 {
                crate::json::write_u64(out, minutes);
                out.push('M');
            }
            if seconds > 0 || (hours == 0 && minutes == 0) {
                crate::json::write_u64(out, seconds);
                out.push('S');
            }
        }
    }
}

impl fmt::Display for IsoDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.format())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(CivilDate::new(1970, 1, 1).unwrap().days_since_epoch(), 0);
        assert_eq!(
            CivilDate::from_days_since_epoch(0),
            CivilDate::new(1970, 1, 1).unwrap()
        );
    }

    #[test]
    fn known_dates_round_trip() {
        // Focal dates from the paper's Appendix A.
        for (y, m, d, text) in [
            (2020, 5, 25, "2020-05-25T00:00:00Z"),
            (2016, 6, 23, "2016-06-23T00:00:00Z"),
            (2021, 1, 6, "2021-01-06T00:00:00Z"),
            (2024, 2, 4, "2024-02-04T00:00:00Z"),
            (2012, 7, 4, "2012-07-04T00:00:00Z"),
            (2014, 6, 12, "2014-06-12T00:00:00Z"),
        ] {
            let ts = Timestamp::from_ymd(y, m, d).unwrap();
            assert_eq!(ts.to_rfc3339(), text);
            assert_eq!(Timestamp::parse_rfc3339(text).unwrap(), ts);
        }
    }

    #[test]
    fn const_constructors_match_runtime() {
        const FOCAL: Timestamp = Timestamp::from_ymd_const(2021, 1, 6);
        assert_eq!(FOCAL, Timestamp::from_ymd(2021, 1, 6).unwrap());
        const NOON: Timestamp = Timestamp::from_ymd_hms_const(2012, 7, 4, 9, 30, 0);
        assert_eq!(NOON, Timestamp::from_ymd_hms(2012, 7, 4, 9, 30, 0).unwrap());
        // Leap day round-trips through the const path too.
        assert_eq!(
            Timestamp::from_ymd_const(2024, 2, 29),
            Timestamp::from_ymd(2024, 2, 29).unwrap()
        );
    }

    #[test]
    fn leap_year_handling() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(2025));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2025, 2), 28);
        assert!(Timestamp::from_ymd(2024, 2, 29).is_ok());
        assert!(Timestamp::from_ymd(2025, 2, 29).is_err());
    }

    #[test]
    fn rejects_invalid_components() {
        assert!(Timestamp::from_ymd(2020, 13, 1).is_err());
        assert!(Timestamp::from_ymd(2020, 0, 1).is_err());
        assert!(Timestamp::from_ymd(2020, 4, 31).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 24, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 0, 60, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 0, 0, 60).is_err());
    }

    #[test]
    fn parses_fraction_and_offsets() {
        let base = Timestamp::from_ymd_hms(2021, 1, 6, 12, 0, 0).unwrap();
        assert_eq!(
            Timestamp::parse_rfc3339("2021-01-06T12:00:00.000Z").unwrap(),
            base
        );
        assert_eq!(
            Timestamp::parse_rfc3339("2021-01-06T12:00:00.123456Z").unwrap(),
            base
        );
        // +02:00 means the UTC instant is two hours earlier.
        assert_eq!(
            Timestamp::parse_rfc3339("2021-01-06T14:00:00+02:00").unwrap(),
            base
        );
        assert_eq!(
            Timestamp::parse_rfc3339("2021-01-06T07:30:00-04:30").unwrap(),
            base
        );
        assert_eq!(
            Timestamp::parse_rfc3339("2021-01-06t12:00:00z").unwrap(),
            base
        );
    }

    #[test]
    fn rejects_malformed_rfc3339() {
        for text in [
            "",
            "2021-01-06",
            "2021-01-06T12:00:00",
            "2021-01-06T12:00:00ZZ",
            "2021-01-06T12:00:00+0200",
            "2021-01-06T12:00:00.Z",
            "2021-13-06T12:00:00Z",
            "2021-01-32T12:00:00Z",
            "2021-01-06T25:00:00Z",
            "not a date at all!!",
            "2021-01-06X12:00:00Z",
        ] {
            assert!(
                Timestamp::parse_rfc3339(text).is_err(),
                "should reject {text:?}"
            );
        }
    }

    #[test]
    fn hour_and_day_arithmetic() {
        let focal = Timestamp::from_ymd(2016, 6, 23).unwrap();
        let start = focal.add_days(-14);
        assert_eq!(start.to_rfc3339(), "2016-06-09T00:00:00Z");
        let end = focal.add_days(14);
        assert_eq!(end.days_since(start), 28);
        assert_eq!(end.hours_since(start), 28 * 24);
        let mid = start.add_hours(13) + 59;
        assert_eq!(mid.floor_hour(), start.add_hours(13));
        assert_eq!(mid.floor_day(), start);
        // Negative differences truncate toward −∞ so bins tile correctly.
        assert_eq!((start + (-1)).hours_since(start), -1);
    }

    #[test]
    fn pre_epoch_dates_work() {
        let ts = Timestamp::from_ymd(1969, 12, 31).unwrap();
        assert_eq!(ts.as_secs(), -DAY);
        assert_eq!(ts.to_rfc3339(), "1969-12-31T00:00:00Z");
        let civil = (ts + (-1)).to_civil();
        assert_eq!(civil.format_rfc3339(), "1969-12-30T23:59:59Z");
    }

    #[test]
    fn duration_parse_and_format() {
        for (text, secs) in [
            ("PT4M13S", 4 * 60 + 13),
            ("PT1H2M3S", 3_723),
            ("PT45S", 45),
            ("PT2H", 7_200),
            ("P1DT2H", 93_600),
            ("P2D", 172_800),
            ("PT0S", 0),
        ] {
            let d = IsoDuration::parse(text).unwrap();
            assert_eq!(d.as_secs(), secs, "parsing {text}");
            // Round trip through the canonical form.
            assert_eq!(IsoDuration::parse(&d.format()).unwrap(), d);
        }
        assert_eq!(IsoDuration::from_secs(0).format(), "PT0S");
        assert_eq!(IsoDuration::from_secs(3_723).format(), "PT1H2M3S");
        assert_eq!(IsoDuration::from_secs(93_600).format(), "P1DT2H");
    }

    #[test]
    fn duration_rejects_malformed() {
        for text in [
            "",
            "P",
            "PT",
            "4M",
            "PT4X",
            "PTM",
            "PT4M13",
            "PT13S4M",
            "P1H",
            "QT4M",
            "PT999999999999999999999S",
        ] {
            assert!(IsoDuration::parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn duration_designator_order_enforced() {
        assert!(IsoDuration::parse("PT3S2M").is_err());
        assert!(IsoDuration::parse("P1DT1D").is_err());
        assert!(IsoDuration::parse("PT1H1H").is_err());
        assert!(IsoDuration::parse("T1H").is_err());
    }

    #[test]
    fn rfc3339_writer_matches_the_formatted_text() {
        for secs in [
            0,
            1,
            59,
            86_399,
            1_466_640_000,
            1_739_059_199,
            -1,
            -62_135_596_800,
            -62_167_219_200,
            -62_198_755_200,
            253_402_300_799,
            253_402_300_800,
        ] {
            let c = Timestamp(secs).to_civil();
            let want = format!(
                "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
                c.date.year(),
                c.date.month(),
                c.date.day(),
                c.hour,
                c.minute,
                c.second
            );
            assert_eq!(Timestamp(secs).to_rfc3339(), want, "{secs}");
        }
    }

    #[test]
    fn display_impls() {
        let ts = Timestamp::from_ymd_hms(2014, 6, 12, 17, 0, 0).unwrap();
        assert_eq!(ts.to_string(), "2014-06-12T17:00:00Z");
        assert_eq!(IsoDuration::from_secs(61).to_string(), "PT1M1S");
        assert_eq!(
            CivilDate::new(2014, 6, 12).unwrap().to_string(),
            "2014-06-12"
        );
    }
}
