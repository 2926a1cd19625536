//! Trace record types.
//!
//! [`SessionDemand`] is what the *generator* produces: a user appears at a
//! building (controller domain) at some time with a traffic demand, and
//! leaves at some later time. Which AP serves the session is a *policy*
//! decision, so the demand record carries no AP.
//!
//! [`SessionRecord`] is what the *network* logs after a policy has chosen
//! an AP — the exact field set of the paper's data-center log: user id,
//! connect/disconnect timestamps, serving AP, and served traffic volume
//! (broken down by application realm, which the paper recovers from router
//! flow logs).

use s3_types::{
    ApId, AppCategory, AppMix, AppMixError, BitsPerSec, BuildingId, Bytes, ControllerId, TimeDelta,
    Timestamp, UserId, APP_CATEGORY_COUNT,
};

/// Transport-layer protocol of a flow (the classifier keys on port+proto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportProtocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

/// A traffic demand: one user's presence interval in one controller domain.
///
/// The generator emits these sorted by `arrive`; the simulator replays them
/// through an AP-selection policy to produce [`SessionRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDemand {
    /// The user.
    pub user: UserId,
    /// Building the user is in (one controller per building).
    pub building: BuildingId,
    /// Controller domain serving that building.
    pub controller: ControllerId,
    /// Arrival instant.
    pub arrive: Timestamp,
    /// Departure instant (strictly after `arrive`).
    pub depart: Timestamp,
    /// Traffic volume by application realm over the whole session.
    pub volume_by_app: [Bytes; APP_CATEGORY_COUNT],
}

impl SessionDemand {
    /// Session duration.
    pub fn duration(&self) -> TimeDelta {
        self.depart.saturating_sub(self.arrive)
    }

    /// Total volume over all realms.
    pub fn total_volume(&self) -> Bytes {
        self.volume_by_app.iter().copied().sum()
    }

    /// Mean throughput of the session, assuming traffic spreads uniformly
    /// over the presence interval (zero for zero-length sessions).
    pub fn mean_rate(&self) -> BitsPerSec {
        self.total_volume()
            .rate_over(self.duration())
            .unwrap_or(BitsPerSec::ZERO)
    }

    /// The session's application profile (normalized volume shares).
    ///
    /// # Errors
    ///
    /// Returns [`AppMixError::AllZero`] for a session with no traffic.
    pub fn app_mix(&self) -> Result<AppMix, AppMixError> {
        let mut volumes = [0.0; APP_CATEGORY_COUNT];
        for (i, v) in self.volume_by_app.iter().enumerate() {
            volumes[i] = v.as_f64();
        }
        AppMix::from_volumes(volumes)
    }

    /// True when the session overlaps the half-open interval `[from, to)`.
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.arrive < to && self.depart > from
    }
}

/// A logged association session — the paper's per-connection record.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// The user (hashed MAC in the real trace; dense id here).
    pub user: UserId,
    /// The AP that served the session.
    pub ap: ApId,
    /// Controller domain of the AP.
    pub controller: ControllerId,
    /// Connected timestamp.
    pub connect: Timestamp,
    /// Disconnected timestamp.
    pub disconnect: Timestamp,
    /// Served traffic volume by application realm.
    pub volume_by_app: [Bytes; APP_CATEGORY_COUNT],
}

impl SessionRecord {
    /// Builds a record by attaching the serving AP to a demand.
    pub fn from_demand(demand: &SessionDemand, ap: ApId) -> Self {
        SessionRecord {
            user: demand.user,
            ap,
            controller: demand.controller,
            connect: demand.arrive,
            disconnect: demand.depart,
            volume_by_app: demand.volume_by_app,
        }
    }

    /// Session duration.
    pub fn duration(&self) -> TimeDelta {
        self.disconnect.saturating_sub(self.connect)
    }

    /// Total served volume.
    pub fn total_volume(&self) -> Bytes {
        self.volume_by_app.iter().copied().sum()
    }

    /// Mean session throughput (uniform-spread assumption).
    pub fn mean_rate(&self) -> BitsPerSec {
        self.total_volume()
            .rate_over(self.duration())
            .unwrap_or(BitsPerSec::ZERO)
    }

    /// Volume served inside the half-open window `[from, to)` under the
    /// uniform-spread assumption — the quantity per-bin throughput
    /// accounting needs.
    pub fn volume_within(&self, from: Timestamp, to: Timestamp) -> Bytes {
        let duration = self.duration();
        if duration.is_zero() || from >= to {
            return Bytes::ZERO;
        }
        let start = self.connect.as_secs().max(from.as_secs());
        let end = self.disconnect.as_secs().min(to.as_secs());
        if start >= end {
            return Bytes::ZERO;
        }
        let fraction = (end - start) as f64 / duration.as_secs_f64();
        Bytes::new((self.total_volume().as_f64() * fraction) as u64)
    }

    /// True when the session overlaps `[from, to)`.
    pub fn overlaps(&self, from: Timestamp, to: Timestamp) -> bool {
        self.connect < to && self.disconnect > from
    }
}

/// A router flow log entry — the input of the application classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// The user that generated the flow.
    pub user: UserId,
    /// Flow start.
    pub start: Timestamp,
    /// Transport protocol.
    pub protocol: TransportProtocol,
    /// Server-side (destination) port, which identifies the application.
    pub server_port: u16,
    /// Bytes carried by the flow.
    pub bytes: Bytes,
}

/// An all-zero per-realm volume array — the starting point for building
/// records by hand.
pub fn zero_volumes() -> [Bytes; APP_CATEGORY_COUNT] {
    [Bytes::ZERO; APP_CATEGORY_COUNT]
}

/// A per-realm volume array with the whole volume in one category —
/// convenient for constructing single-application test sessions.
pub fn concentrated_volumes(category: AppCategory, volume: Bytes) -> [Bytes; APP_CATEGORY_COUNT] {
    let mut v = zero_volumes();
    v[category.index()] = volume;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> SessionDemand {
        SessionDemand {
            user: UserId::new(1),
            building: BuildingId::new(0),
            controller: ControllerId::new(0),
            arrive: Timestamp::from_secs(100),
            depart: Timestamp::from_secs(1100),
            volume_by_app: concentrated_volumes(AppCategory::Video, Bytes::new(1_000_000)),
        }
    }

    #[test]
    fn demand_derived_quantities() {
        let d = demand();
        assert_eq!(d.duration(), TimeDelta::secs(1000));
        assert_eq!(d.total_volume(), Bytes::new(1_000_000));
        assert!((d.mean_rate().as_f64() - 8_000.0).abs() < 1e-9);
        let mix = d.app_mix().unwrap();
        assert_eq!(mix.share(AppCategory::Video), 1.0);
    }

    #[test]
    fn empty_demand_has_zero_rate_and_no_mix() {
        let mut d = demand();
        d.volume_by_app = zero_volumes();
        assert_eq!(d.mean_rate(), BitsPerSec::ZERO);
        assert!(d.app_mix().is_err());
    }

    #[test]
    fn overlap_semantics_are_half_open() {
        let d = demand();
        assert!(d.overlaps(Timestamp::from_secs(0), Timestamp::from_secs(101)));
        assert!(!d.overlaps(Timestamp::from_secs(0), Timestamp::from_secs(100)));
        assert!(d.overlaps(Timestamp::from_secs(1099), Timestamp::from_secs(2000)));
        assert!(!d.overlaps(Timestamp::from_secs(1100), Timestamp::from_secs(2000)));
    }

    #[test]
    fn record_from_demand_copies_fields() {
        let d = demand();
        let r = SessionRecord::from_demand(&d, ApId::new(7));
        assert_eq!(r.user, d.user);
        assert_eq!(r.ap, ApId::new(7));
        assert_eq!(r.connect, d.arrive);
        assert_eq!(r.disconnect, d.depart);
        assert_eq!(r.total_volume(), d.total_volume());
    }

    #[test]
    fn volume_within_partial_window() {
        let d = demand();
        let r = SessionRecord::from_demand(&d, ApId::new(0));
        // Window covers half the session (500 of 1000 seconds).
        let v = r.volume_within(Timestamp::from_secs(100), Timestamp::from_secs(600));
        assert_eq!(v, Bytes::new(500_000));
        // Window fully covers the session.
        let v = r.volume_within(Timestamp::from_secs(0), Timestamp::from_secs(9999));
        assert_eq!(v, Bytes::new(1_000_000));
        // Disjoint window.
        let v = r.volume_within(Timestamp::from_secs(2000), Timestamp::from_secs(3000));
        assert_eq!(v, Bytes::ZERO);
        // Inverted window.
        let v = r.volume_within(Timestamp::from_secs(600), Timestamp::from_secs(100));
        assert_eq!(v, Bytes::ZERO);
    }

    #[test]
    fn volume_within_zero_duration_session() {
        let mut d = demand();
        d.depart = d.arrive;
        let r = SessionRecord::from_demand(&d, ApId::new(0));
        assert_eq!(
            r.volume_within(Timestamp::from_secs(0), Timestamp::from_secs(9999)),
            Bytes::ZERO
        );
    }
}
