//! Traffic volume and rate units.
//!
//! The trace logs a per-session *served traffic amount* ([`Bytes`]) and the
//! simulator models AP capacity and user demand as rates ([`BitsPerSec`]).
//! Keeping the two in distinct newtypes prevents the classic bytes-vs-bits
//! unit bug at compile time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

use crate::TimeDelta;

/// A traffic volume in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a volume from a raw byte count.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a volume from whole kilobytes (10³ bytes).
    #[inline]
    pub const fn kilobytes(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Creates a volume from whole megabytes (10⁶ bytes).
    #[inline]
    pub const fn megabytes(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` for statistics.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// True when the volume is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Mean rate of this volume spread over `span`.
    ///
    /// Returns `None` when `span` is zero.
    pub fn rate_over(self, span: TimeDelta) -> Option<BitsPerSec> {
        if span.is_zero() {
            None
        } else {
            Some(BitsPerSec::new(self.0 as f64 * 8.0 / span.as_secs_f64()))
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GB", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A traffic rate in bits per second.
///
/// AP capacities (`W(i)` in the paper's constraint `Σ w(u) ≤ W(i)`) and
/// estimated user demands (`w(u)`) are both rates.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitsPerSec(f64);

impl BitsPerSec {
    /// Zero rate.
    pub const ZERO: BitsPerSec = BitsPerSec(0.0);

    /// Creates a rate from raw bits/s; negative or non-finite inputs clamp
    /// to zero so arithmetic downstream never sees garbage.
    #[inline]
    pub fn new(bps: f64) -> Self {
        if bps.is_finite() && bps > 0.0 {
            BitsPerSec(bps)
        } else {
            BitsPerSec(0.0)
        }
    }

    /// Creates a rate from megabits per second.
    #[inline]
    pub fn mbps(mbps: f64) -> Self {
        BitsPerSec::new(mbps * 1e6)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn as_f64(self) -> f64 {
        self.0
    }

    /// Volume transferred at this rate over `span` (rounded down to bytes).
    pub fn volume_over(self, span: TimeDelta) -> Bytes {
        Bytes::new((self.0 * span.as_secs_f64() / 8.0) as u64)
    }

    /// Saturating subtraction (never below zero).
    #[inline]
    pub fn saturating_sub(self, rhs: BitsPerSec) -> BitsPerSec {
        BitsPerSec::new(self.0 - rhs.0)
    }
}

impl Add for BitsPerSec {
    type Output = BitsPerSec;
    #[inline]
    fn add(self, rhs: BitsPerSec) -> BitsPerSec {
        BitsPerSec(self.0 + rhs.0)
    }
}

impl AddAssign for BitsPerSec {
    #[inline]
    fn add_assign(&mut self, rhs: BitsPerSec) {
        self.0 += rhs.0;
    }
}

impl Sum for BitsPerSec {
    fn sum<I: Iterator<Item = BitsPerSec>>(iter: I) -> BitsPerSec {
        BitsPerSec(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for BitsPerSec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.1}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors_scale() {
        assert_eq!(Bytes::kilobytes(2), Bytes::new(2_000));
        assert_eq!(Bytes::megabytes(3), Bytes::new(3_000_000));
    }

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::new(100);
        let b = Bytes::new(30);
        assert_eq!(a + b, Bytes::new(130));
        assert_eq!(a - b, Bytes::new(70));
        assert_eq!(b - a, Bytes::ZERO); // saturating
        let total: Bytes = [a, b, b].into_iter().sum();
        assert_eq!(total, Bytes::new(160));
    }

    #[test]
    fn rate_volume_round_trip() {
        let rate = BitsPerSec::mbps(8.0); // 1 MB/s
        let vol = rate.volume_over(TimeDelta::secs(10));
        assert_eq!(vol, Bytes::new(10_000_000));
        let back = vol.rate_over(TimeDelta::secs(10)).unwrap();
        assert!((back.as_f64() - rate.as_f64()).abs() < 1e-6);
    }

    #[test]
    fn rate_over_zero_span_is_none() {
        assert_eq!(Bytes::new(5).rate_over(TimeDelta::ZERO), None);
    }

    #[test]
    fn rates_clamp_invalid_inputs() {
        assert_eq!(BitsPerSec::new(-5.0), BitsPerSec::ZERO);
        assert_eq!(BitsPerSec::new(f64::NAN), BitsPerSec::ZERO);
        assert_eq!(BitsPerSec::new(f64::INFINITY), BitsPerSec::ZERO);
    }

    #[test]
    fn rate_saturating_sub() {
        let a = BitsPerSec::mbps(2.0);
        let b = BitsPerSec::mbps(5.0);
        assert_eq!(a.saturating_sub(b), BitsPerSec::ZERO);
        assert!((b.saturating_sub(a).as_f64() - 3e6).abs() < 1e-6);
    }

    #[test]
    fn human_readable_display() {
        assert_eq!(Bytes::new(12).to_string(), "12B");
        assert_eq!(Bytes::new(1_500).to_string(), "1.50KB");
        assert_eq!(Bytes::new(2_500_000).to_string(), "2.50MB");
        assert_eq!(Bytes::new(3_000_000_000).to_string(), "3.00GB");
        assert_eq!(BitsPerSec::mbps(1.5).to_string(), "1.50Mbps");
        assert_eq!(BitsPerSec::new(2_000.0).to_string(), "2.00Kbps");
        assert_eq!(BitsPerSec::new(10.0).to_string(), "10.0bps");
    }
}
