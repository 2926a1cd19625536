//! Simulation time.
//!
//! All trace records and simulator events are stamped with a [`Timestamp`]:
//! whole seconds since the start of the simulated trace (day 0, 00:00:00).
//! The paper slices its three-month trace by day, hour-of-day and
//! sub-periods of minutes, so the type carries exactly those helpers.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Seconds per minute.
pub const SECS_PER_MINUTE: u64 = 60;
/// Seconds per hour.
pub const SECS_PER_HOUR: u64 = 3_600;
/// Seconds per day.
pub const SECS_PER_DAY: u64 = 86_400;

/// An instant in simulated time: seconds since day 0, 00:00:00.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

/// A span of simulated time in whole seconds.
///
/// Spans are non-negative; subtracting a later timestamp from an earlier one
/// saturates to zero (use [`Timestamp::abs_diff`] for unsigned distance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(u64);

impl Timestamp {
    /// The start of the trace: day 0, 00:00:00.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from raw seconds since trace start.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs)
    }

    /// Creates a timestamp from a (day, hour, minute, second) clock reading.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`, `min >= 60` or `sec >= 60`.
    ///
    /// # Example
    /// ```
    /// # use s3_types::Timestamp;
    /// let t = Timestamp::from_day_hms(1, 10, 30, 0);
    /// assert_eq!(t.as_secs(), 86_400 + 10 * 3_600 + 30 * 60);
    /// ```
    pub fn from_day_hms(day: u64, hour: u64, min: u64, sec: u64) -> Self {
        assert!(hour < 24, "hour out of range: {hour}");
        assert!(min < 60, "minute out of range: {min}");
        assert!(sec < 60, "second out of range: {sec}");
        Timestamp(day * SECS_PER_DAY + hour * SECS_PER_HOUR + min * SECS_PER_MINUTE + sec)
    }

    /// Raw seconds since trace start.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The simulated day index (day 0 is the first trace day).
    #[inline]
    pub const fn day(self) -> u64 {
        self.0 / SECS_PER_DAY
    }

    /// Hour of day, `0..24`.
    #[inline]
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % SECS_PER_DAY) / SECS_PER_HOUR
    }

    /// Minute of hour, `0..60`.
    #[inline]
    pub const fn minute_of_hour(self) -> u64 {
        (self.0 % SECS_PER_HOUR) / SECS_PER_MINUTE
    }

    /// Seconds elapsed since the most recent midnight.
    #[inline]
    pub const fn secs_of_day(self) -> u64 {
        self.0 % SECS_PER_DAY
    }

    /// Unsigned distance between two instants.
    #[inline]
    pub const fn abs_diff(self, other: Timestamp) -> TimeDelta {
        TimeDelta(self.0.abs_diff(other.0))
    }

    /// Saturating difference: zero when `other` is later than `self`.
    #[inline]
    pub const fn saturating_sub(self, other: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(other.0))
    }

    /// Rounds this timestamp down to a multiple of `bin` (used to bucket
    /// throughput samples into fixed analysis bins).
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    #[inline]
    pub fn floor_to(self, bin: TimeDelta) -> Timestamp {
        assert!(bin.0 > 0, "bin width must be positive");
        Timestamp(self.0 / bin.0 * bin.0)
    }
}

impl TimeDelta {
    /// A zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Creates a span from whole seconds.
    #[inline]
    pub const fn secs(secs: u64) -> Self {
        TimeDelta(secs)
    }

    /// Creates a span from whole minutes.
    #[inline]
    pub const fn minutes(mins: u64) -> Self {
        TimeDelta(mins * SECS_PER_MINUTE)
    }

    /// Creates a span from whole hours.
    #[inline]
    pub const fn hours(hours: u64) -> Self {
        TimeDelta(hours * SECS_PER_HOUR)
    }

    /// Creates a span from whole days.
    #[inline]
    pub const fn days(days: u64) -> Self {
        TimeDelta(days * SECS_PER_DAY)
    }

    /// The span in whole seconds.
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The span in seconds as a float (for rate computations).
    #[inline]
    pub const fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }

    /// True when the span is zero seconds long.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked integer division of two spans (how many `rhs` fit in `self`).
    #[inline]
    pub const fn div_floor(self, rhs: TimeDelta) -> Option<u64> {
        self.0.checked_div(rhs.0)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign<TimeDelta> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            self.day(),
            self.hour_of_day(),
            self.minute_of_hour(),
            self.0 % SECS_PER_MINUTE
        )
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_decomposition() {
        let t = Timestamp::from_day_hms(2, 15, 45, 30);
        assert_eq!(t.day(), 2);
        assert_eq!(t.hour_of_day(), 15);
        assert_eq!(t.minute_of_hour(), 45);
        assert_eq!(t.secs_of_day(), 15 * 3600 + 45 * 60 + 30);
    }

    #[test]
    #[should_panic(expected = "hour out of range")]
    fn from_day_hms_rejects_bad_hour() {
        let _ = Timestamp::from_day_hms(0, 24, 0, 0);
    }

    #[test]
    fn arithmetic_is_saturating_downward() {
        let t = Timestamp::from_secs(100);
        assert_eq!((t - TimeDelta::secs(200)).as_secs(), 0);
        assert_eq!(
            Timestamp::from_secs(50).saturating_sub(Timestamp::from_secs(80)),
            TimeDelta::ZERO
        );
        assert_eq!(
            Timestamp::from_secs(50).abs_diff(Timestamp::from_secs(80)),
            TimeDelta::secs(30)
        );
    }

    #[test]
    fn floor_to_bins() {
        let t = Timestamp::from_secs(605);
        assert_eq!(t.floor_to(TimeDelta::minutes(10)).as_secs(), 600);
        assert_eq!(
            Timestamp::from_secs(599)
                .floor_to(TimeDelta::minutes(10))
                .as_secs(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn floor_to_zero_bin_panics() {
        let _ = Timestamp::from_secs(1).floor_to(TimeDelta::ZERO);
    }

    #[test]
    fn delta_constructors_agree() {
        assert_eq!(TimeDelta::minutes(3), TimeDelta::secs(180));
        assert_eq!(TimeDelta::hours(2), TimeDelta::minutes(120));
        assert_eq!(TimeDelta::days(1), TimeDelta::hours(24));
        assert_eq!(TimeDelta::days(1).div_floor(TimeDelta::hours(1)), Some(24));
        assert_eq!(TimeDelta::days(1).div_floor(TimeDelta::ZERO), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Timestamp::from_day_hms(1, 9, 5, 7).to_string(),
            "d1+09:05:07"
        );
        assert_eq!(TimeDelta::minutes(2).to_string(), "120s");
    }

    #[test]
    fn ordering_follows_seconds() {
        assert!(Timestamp::from_secs(5) < Timestamp::from_secs(6));
        assert!(TimeDelta::secs(5) < TimeDelta::secs(6));
    }
}
