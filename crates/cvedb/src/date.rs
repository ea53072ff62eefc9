//! A compact calendar date with day-precision arithmetic.
//!
//! The study spans Mar 2018 – Feb 2022 in weekly snapshots; update-delay
//! analysis (§7) needs "days between patch release and observed update".
//! This is a minimal proleptic-Gregorian date — no time zones, no times —
//! using Howard Hinnant's civil-days algorithms for O(1) conversion.

use std::fmt;
use std::str::FromStr;

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    /// Days since 1970-01-01 (may be negative).
    days: i32,
}

/// Error parsing a [`Date`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDateError(String);

impl fmt::Display for ParseDateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid date {:?} (expected YYYY-MM-DD or MM/DD/YYYY)",
            self.0
        )
    }
}

impl std::error::Error for ParseDateError {}

impl Date {
    /// Builds a date from year/month/day.
    ///
    /// # Panics
    ///
    /// Panics when the components do not form a real calendar date.
    pub fn new(year: i32, month: u32, day: u32) -> Date {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        Date {
            days: days_from_civil(year, month, day),
        }
    }

    /// Parses `YYYY-MM-DD` or the paper's `MM/DD/YYYY`.
    pub fn parse(s: &str) -> Result<Date, ParseDateError> {
        let err = || ParseDateError(s.to_string());
        let (y, m, d) = if s.contains('-') {
            let mut it = s.split('-');
            (
                it.next().ok_or_else(err)?,
                it.next().ok_or_else(err)?,
                it.next().ok_or_else(err)?,
            )
        } else if s.contains('/') {
            let mut it = s.split('/');
            let m = it.next().ok_or_else(err)?;
            let d = it.next().ok_or_else(err)?;
            let y = it.next().ok_or_else(err)?;
            (y, m, d)
        } else {
            return Err(err());
        };
        let year: i32 = y.trim().parse().map_err(|_| err())?;
        let month: u32 = m.trim().parse().map_err(|_| err())?;
        let day: u32 = d.trim().parse().map_err(|_| err())?;
        if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
            return Err(err());
        }
        Ok(Date::new(year, month, day))
    }

    /// Days since the Unix epoch (1970-01-01).
    pub fn day_number(&self) -> i32 {
        self.days
    }

    /// Builds a date from a day number.
    pub fn from_day_number(days: i32) -> Date {
        Date { days }
    }

    /// `(year, month, day)` components.
    pub fn civil(&self) -> (i32, u32, u32) {
        civil_from_days(self.days)
    }

    /// The year.
    pub fn year(&self) -> i32 {
        self.civil().0
    }

    /// The month (1–12).
    pub fn month(&self) -> u32 {
        self.civil().1
    }

    /// The day of month (1–31).
    pub fn day(&self) -> u32 {
        self.civil().2
    }

    /// This date plus `n` days (negative moves backwards).
    pub fn add_days(&self, n: i32) -> Date {
        Date {
            days: self.days + n,
        }
    }

    /// Whole days from `earlier` to `self` (negative when `self` precedes).
    pub fn days_since(&self, earlier: Date) -> i32 {
        self.days - earlier.days
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.civil();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl FromStr for Date {
    type Err = ParseDateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Date::parse(s)
    }
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Hinnant's `days_from_civil`: days since 1970-01-01.
fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 … Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i32 - 719_468
}

/// Hinnant's `civil_from_days`.
fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).day_number(), 0);
        assert_eq!(Date::from_day_number(0), Date::new(1970, 1, 1));
    }

    #[test]
    fn parses_both_formats() {
        assert_eq!(
            Date::parse("2020-04-10").expect("iso"),
            Date::new(2020, 4, 10)
        );
        assert_eq!(
            Date::parse("04/10/2020").expect("us"),
            Date::new(2020, 4, 10)
        );
        assert_eq!(
            Date::parse("2/7/2016").expect("short"),
            Date::new(2016, 2, 7)
        );
    }

    #[test]
    fn rejects_invalid() {
        for bad in [
            "",
            "2020",
            "2020-13-01",
            "2020-02-30",
            "x/y/z",
            "2019-02-29",
        ] {
            assert!(Date::parse(bad).is_err(), "{bad}");
        }
        assert!(Date::parse("2020-02-29").is_ok(), "2020 is a leap year");
    }

    #[test]
    fn arithmetic() {
        let a = Date::new(2018, 3, 1);
        let b = Date::new(2022, 2, 28);
        // Study length: Mar 2018 – Feb 2022.
        assert_eq!(b.days_since(a), 1460);
        assert_eq!(a.add_days(1460), b);
        assert_eq!(a.add_days(-1), Date::new(2018, 2, 28));
    }

    #[test]
    fn ordering_follows_calendar() {
        assert!(Date::new(2020, 4, 10) < Date::new(2020, 5, 19));
        assert!(Date::new(2019, 12, 31) < Date::new(2020, 1, 1));
    }

    #[test]
    fn civil_round_trip_across_leap_years() {
        for days in (-20_000..40_000).step_by(17) {
            let d = Date::from_day_number(days);
            let (y, m, dd) = d.civil();
            assert_eq!(Date::new(y, m, dd).day_number(), days);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Date::new(2020, 4, 10).to_string(), "2020-04-10");
        assert_eq!(Date::new(987, 1, 2).to_string(), "0987-01-02");
    }

    #[test]
    fn paper_interval_example() {
        // "531.2 days (17.4 months)" — sanity check month arithmetic scale.
        let patched = Date::parse("04/10/2020").expect("valid");
        let observed = patched.add_days(531);
        assert_eq!(observed.year(), 2021);
        assert_eq!(observed.month(), 9);
    }
}
