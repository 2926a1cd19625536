//! Application realms and per-user application-usage profiles.
//!
//! The paper classifies the top-30 applications of the SJTU trace into six
//! realms — IM, P2P, music, e-mail, video and web browsing — and represents
//! each user by the normalized traffic shares over those realms
//! (`T_x(u) = (a¹_u, …, a⁶_u)`). [`AppMix`] is that vector with the simplex
//! invariant (non-negative, sums to 1) enforced at construction.

use core::fmt;
use core::ops::Index;

/// Number of application realms used throughout the system.
pub const APP_CATEGORY_COUNT: usize = 6;

/// The six application realms of the paper (Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppCategory {
    /// Instant messaging.
    Im,
    /// Peer-to-peer file sharing.
    P2p,
    /// Music streaming / download.
    Music,
    /// E-mail.
    Email,
    /// Video streaming.
    Video,
    /// Web browsing.
    WebBrowsing,
}

impl AppCategory {
    /// All realms in canonical order (the order of the paper's Fig. 8 axes).
    pub const ALL: [AppCategory; APP_CATEGORY_COUNT] = [
        AppCategory::Im,
        AppCategory::P2p,
        AppCategory::Music,
        AppCategory::Email,
        AppCategory::Video,
        AppCategory::WebBrowsing,
    ];

    /// Dense index of this realm, `0..6`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`AppCategory::index`].
    ///
    /// Returns `None` when `index >= 6`.
    pub const fn from_index(index: usize) -> Option<AppCategory> {
        match index {
            0 => Some(AppCategory::Im),
            1 => Some(AppCategory::P2p),
            2 => Some(AppCategory::Music),
            3 => Some(AppCategory::Email),
            4 => Some(AppCategory::Video),
            5 => Some(AppCategory::WebBrowsing),
            _ => None,
        }
    }

    /// Short lowercase label used in CSV output.
    pub const fn label(self) -> &'static str {
        match self {
            AppCategory::Im => "im",
            AppCategory::P2p => "p2p",
            AppCategory::Music => "music",
            AppCategory::Email => "email",
            AppCategory::Video => "video",
            AppCategory::WebBrowsing => "web",
        }
    }
}

impl fmt::Display for AppCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error building an [`AppMix`] from raw volumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppMixError {
    /// A component was negative or non-finite.
    InvalidComponent {
        /// Index of the offending realm.
        index: usize,
    },
    /// All components were zero, so no normalization exists.
    AllZero,
}

impl fmt::Display for AppMixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppMixError::InvalidComponent { index } => {
                write!(f, "app-mix component {index} is negative or non-finite")
            }
            AppMixError::AllZero => f.write_str("app-mix volumes are all zero"),
        }
    }
}

impl std::error::Error for AppMixError {}

/// A normalized application-usage profile: traffic shares over the six
/// realms, non-negative and summing to 1.
///
/// This is the feature vector that the paper clusters with k-means (Fig. 7/8)
/// and compares across days with NMI (Fig. 6).
///
/// # Example
/// ```
/// use s3_types::{AppCategory, AppMix};
///
/// let a = AppMix::from_volumes([1.0, 1.0, 0.0, 0.0, 0.0, 2.0])?;
/// assert!((a.share(AppCategory::WebBrowsing) - 0.5).abs() < 1e-12);
/// assert!((a.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// # Ok::<(), s3_types::AppMixError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppMix {
    shares: [f64; APP_CATEGORY_COUNT],
}

impl AppMix {
    /// Builds a profile from raw (unnormalized) traffic volumes.
    ///
    /// # Errors
    ///
    /// Returns [`AppMixError::InvalidComponent`] if any volume is negative or
    /// non-finite, and [`AppMixError::AllZero`] if every volume is zero.
    pub fn from_volumes(volumes: [f64; APP_CATEGORY_COUNT]) -> Result<Self, AppMixError> {
        let mut total = 0.0;
        for (index, &v) in volumes.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(AppMixError::InvalidComponent { index });
            }
            total += v;
        }
        if total <= 0.0 {
            return Err(AppMixError::AllZero);
        }
        let mut shares = volumes;
        for s in &mut shares {
            *s /= total;
        }
        Ok(AppMix { shares })
    }

    /// The uniform profile (1/6 in every realm) — the maximum-entropy prior
    /// used for users with no history.
    pub fn uniform() -> Self {
        AppMix {
            shares: [1.0 / APP_CATEGORY_COUNT as f64; APP_CATEGORY_COUNT],
        }
    }

    /// A profile fully concentrated in one realm.
    pub fn concentrated(category: AppCategory) -> Self {
        let mut shares = [0.0; APP_CATEGORY_COUNT];
        shares[category.index()] = 1.0;
        AppMix { shares }
    }

    /// Share of traffic in `category` (in `[0,1]`).
    #[inline]
    pub fn share(&self, category: AppCategory) -> f64 {
        self.shares[category.index()]
    }

    /// The full share vector in [`AppCategory::ALL`] order.
    #[inline]
    pub fn shares(&self) -> &[f64; APP_CATEGORY_COUNT] {
        &self.shares
    }

    /// Euclidean (L2) distance between two profiles — the metric used by
    /// k-means over profiles.
    pub fn l2_distance(&self, other: &AppMix) -> f64 {
        self.shares
            .iter()
            .zip(other.shares.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Total-variation distance, `½ Σ |aᵢ − bᵢ|`, in `[0,1]`.
    pub fn tv_distance(&self, other: &AppMix) -> f64 {
        0.5 * self
            .shares
            .iter()
            .zip(other.shares.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }

    /// Convex combination `(1−t)·self + t·other`; both operands are on the
    /// simplex so the result is too.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `[0,1]`.
    pub fn lerp(&self, other: &AppMix, t: f64) -> AppMix {
        assert!((0.0..=1.0).contains(&t), "lerp parameter out of [0,1]: {t}");
        let mut shares = [0.0; APP_CATEGORY_COUNT];
        for (slot, (a, b)) in shares.iter_mut().zip(self.shares.iter().zip(&other.shares)) {
            *slot = (1.0 - t) * a + t * b;
        }
        AppMix { shares }
    }

    /// The realm with the largest share (ties resolve to the lowest index).
    pub fn dominant(&self) -> AppCategory {
        let mut best = 0;
        for i in 1..APP_CATEGORY_COUNT {
            if self.shares[i] > self.shares[best] {
                best = i;
            }
        }
        AppCategory::from_index(best).expect("index < APP_CATEGORY_COUNT")
    }
}

impl Default for AppMix {
    fn default() -> Self {
        AppMix::uniform()
    }
}

impl Index<AppCategory> for AppMix {
    type Output = f64;
    fn index(&self, category: AppCategory) -> &f64 {
        &self.shares[category.index()]
    }
}

impl fmt::Display for AppMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in AppCategory::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}:{:.2}", c.label(), self.shares[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_index_round_trip() {
        for c in AppCategory::ALL {
            assert_eq!(AppCategory::from_index(c.index()), Some(c));
        }
        assert_eq!(AppCategory::from_index(6), None);
    }

    #[test]
    fn from_volumes_normalizes() {
        let m = AppMix::from_volumes([2.0, 0.0, 0.0, 0.0, 0.0, 6.0]).unwrap();
        assert!((m.share(AppCategory::Im) - 0.25).abs() < 1e-12);
        assert!((m.share(AppCategory::WebBrowsing) - 0.75).abs() < 1e-12);
        assert!((m.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_volumes_rejects_negative_and_nan() {
        assert_eq!(
            AppMix::from_volumes([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            Err(AppMixError::InvalidComponent { index: 0 })
        );
        assert_eq!(
            AppMix::from_volumes([0.0, 0.0, f64::NAN, 0.0, 0.0, 1.0]),
            Err(AppMixError::InvalidComponent { index: 2 })
        );
        assert_eq!(AppMix::from_volumes([0.0; 6]), Err(AppMixError::AllZero));
    }

    #[test]
    fn distances_are_metrics_on_examples() {
        let a = AppMix::concentrated(AppCategory::Im);
        let b = AppMix::concentrated(AppCategory::Video);
        assert!((a.l2_distance(&a)).abs() < 1e-12);
        assert!((a.tv_distance(&b) - 1.0).abs() < 1e-12);
        assert!((a.l2_distance(&b) - 2.0_f64.sqrt()).abs() < 1e-12);
        // symmetry
        assert_eq!(a.l2_distance(&b), b.l2_distance(&a));
    }

    #[test]
    fn lerp_stays_on_simplex() {
        let a = AppMix::concentrated(AppCategory::P2p);
        let b = AppMix::uniform();
        let mid = a.lerp(&b, 0.5);
        assert!((mid.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(mid.shares().iter().all(|&s| s >= 0.0));
    }

    #[test]
    #[should_panic(expected = "lerp parameter out of [0,1]")]
    fn lerp_rejects_out_of_range() {
        let _ = AppMix::uniform().lerp(&AppMix::uniform(), 1.5);
    }

    #[test]
    fn dominant_picks_argmax() {
        let m = AppMix::from_volumes([1.0, 5.0, 2.0, 0.0, 4.0, 1.0]).unwrap();
        assert_eq!(m.dominant(), AppCategory::P2p);
        assert_eq!(AppMix::uniform().dominant(), AppCategory::Im); // lowest index ties
    }

    #[test]
    fn display_shows_all_realms() {
        let s = AppMix::uniform().to_string();
        for c in AppCategory::ALL {
            assert!(s.contains(c.label()), "missing {c} in {s}");
        }
    }

    #[test]
    fn index_by_category() {
        let m = AppMix::concentrated(AppCategory::Email);
        assert_eq!(m[AppCategory::Email], 1.0);
        assert_eq!(m[AppCategory::Im], 0.0);
    }
}
