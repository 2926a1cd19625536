//! Newtype identifiers for the entities of an enterprise WLAN.
//!
//! The paper's trace identifies users by hashed MAC address and APs by a
//! controller-scoped index. We model every identifier as a dense `u32`
//! newtype so that per-entity state can live in flat `Vec`s, which matters
//! for the simulator and for the pairwise social-index store.

use core::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its dense index.
            ///
            /// # Example
            /// ```
            /// # use s3_types::UserId;
            /// let u = UserId::new(7);
            /// assert_eq!(u.index(), 7);
            /// ```
            #[inline]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the dense index backing this identifier.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                v.0
            }
        }
    };
}

id_newtype!(
    /// A WLAN user (a wireless station; the paper's hashed MAC address).
    UserId,
    "u"
);
id_newtype!(
    /// A light-weight access point.
    ApId,
    "ap"
);
id_newtype!(
    /// A WLAN controller; each controller manages the APs of one domain and
    /// runs the AP-selection algorithm for arrivals inside that domain.
    ControllerId,
    "ctl"
);
id_newtype!(
    /// A campus building; APs are deployed per building.
    BuildingId,
    "b"
);
id_newtype!(
    /// A social group (a class, lab or meeting cohort) used by the synthetic
    /// trace generator; the S³ algorithm itself never sees group identities.
    GroupId,
    "g"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(UserId::new(3).to_string(), "u3");
        assert_eq!(ApId::new(0).to_string(), "ap0");
        assert_eq!(ControllerId::new(12).to_string(), "ctl12");
        assert_eq!(BuildingId::new(5).to_string(), "b5");
        assert_eq!(GroupId::new(9).to_string(), "g9");
    }

    #[test]
    fn round_trips_through_u32() {
        let ap = ApId::from(42u32);
        assert_eq!(u32::from(ap), 42);
        assert_eq!(ap.index(), 42);
        assert_eq!(ap.raw(), 42);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        assert!(UserId::new(1) < UserId::new(2));
        let set: HashSet<UserId> = [UserId::new(1), UserId::new(1), UserId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property: UserId and ApId are different types.
        // This test documents the intent; the real check is that the
        // following would not compile: `UserId::new(1) == ApId::new(1)`.
        let u = UserId::new(1);
        let a = ApId::new(1);
        assert_eq!(u.index(), a.index());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(UserId::default(), UserId::new(0));
    }
}
