//! The collection schedule: when snapshots happen.
//!
//! The paper ran identical queries every 5 days from 2025-02-09 to
//! 2025-04-30, skipping 2025-04-05 ("due to a technical problem"),
//! yielding 16 snapshots over 12 weeks.

use serde::{Deserialize, Serialize};
use ytaudit_types::Timestamp;

/// A list of snapshot dates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    dates: Vec<Timestamp>,
}

impl Schedule {
    /// The paper's exact schedule: 2025-02-09 … 2025-04-30 every 5 days,
    /// with 2025-04-05 skipped — 16 snapshots.
    pub fn paper() -> Schedule {
        let start = Timestamp::from_ymd_const(2025, 2, 9);
        let skipped = Timestamp::from_ymd_const(2025, 4, 5);
        let dates = (0..17)
            .map(|i| start.add_days(5 * i))
            .filter(|&d| d != skipped)
            .collect();
        Schedule { dates }
    }

    /// An evenly spaced schedule: `count` snapshots every `interval_days`
    /// starting at `start`. Used for fast tests and the §6.2 "more sparse
    /// collections over a longer period" extension.
    pub fn every(start: Timestamp, interval_days: i64, count: usize) -> Schedule {
        Schedule {
            dates: (0..count as i64)
                .map(|i| start.add_days(i * interval_days))
                .collect(),
        }
    }

    /// An explicit list of dates.
    pub fn explicit(dates: Vec<Timestamp>) -> Schedule {
        Schedule { dates }
    }

    /// The snapshot dates in order.
    pub fn dates(&self) -> &[Timestamp] {
        &self.dates
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.dates.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.dates.is_empty()
    }

    /// First snapshot date.
    pub fn first(&self) -> Option<Timestamp> {
        self.dates.first().copied()
    }

    /// Last snapshot date.
    pub fn last(&self) -> Option<Timestamp> {
        self.dates.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_has_16_snapshots() {
        let schedule = Schedule::paper();
        assert_eq!(schedule.len(), 16);
        assert_eq!(
            schedule.first().unwrap().to_rfc3339(),
            "2025-02-09T00:00:00Z"
        );
        assert_eq!(
            schedule.last().unwrap().to_rfc3339(),
            "2025-04-30T00:00:00Z"
        );
        // April 5 is skipped.
        let skipped = Timestamp::from_ymd(2025, 4, 5).unwrap();
        assert!(!schedule.dates().contains(&skipped));
        // All other gaps are 5 days except the 10-day gap around the skip.
        let mut gaps: Vec<i64> = schedule
            .dates()
            .windows(2)
            .map(|w| w[1].days_since(w[0]))
            .collect();
        gaps.sort_unstable();
        assert_eq!(gaps.pop(), Some(10));
        assert!(gaps.iter().all(|&g| g == 5));
    }

    #[test]
    fn paper_schedule_matches_the_published_dates() {
        // The paper's §3 calendar, date by date: every 5 days from
        // 2025-02-09 through 2025-04-30, with 2025-04-05 absent.
        let expected: Vec<Timestamp> = [
            (2, 9),
            (2, 14),
            (2, 19),
            (2, 24),
            (3, 1),
            (3, 6),
            (3, 11),
            (3, 16),
            (3, 21),
            (3, 26),
            (3, 31),
            (4, 10),
            (4, 15),
            (4, 20),
            (4, 25),
            (4, 30),
        ]
        .into_iter()
        .map(|(m, d)| Timestamp::from_ymd(2025, m, d).unwrap())
        .collect();
        assert_eq!(expected.len(), 16);
        assert_eq!(Schedule::paper().dates(), expected.as_slice());
    }

    #[test]
    fn every_builds_even_schedules() {
        let start = Timestamp::from_ymd(2025, 2, 9).unwrap();
        let schedule = Schedule::every(start, 10, 4);
        assert_eq!(schedule.len(), 4);
        assert_eq!(schedule.dates()[3], start.add_days(30));
        assert!(Schedule::every(start, 5, 0).is_empty());
    }
}
