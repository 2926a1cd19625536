//! Physical network topology: buildings, controllers and APs.

use s3_trace::generator::CampusConfig;
use s3_types::{ApId, BitsPerSec, BuildingId, ControllerId};

/// Static description of one AP.
#[derive(Debug, Clone, PartialEq)]
pub struct ApInfo {
    /// The AP's id (dense across the whole campus).
    pub id: ApId,
    /// Building the AP is deployed in.
    pub building: BuildingId,
    /// Controller managing the AP.
    pub controller: ControllerId,
    /// Backhaul/radio capacity `W(i)` of the paper's constraint.
    pub capacity: BitsPerSec,
    /// Position inside the building, meters (buildings are
    /// `SIDE × SIDE` squares with APs on a uniform grid).
    pub position: (f64, f64),
}

/// Side length of a building's floor plate, meters.
pub const BUILDING_SIDE_M: f64 = 60.0;

/// Default AP capacity: 802.11n-class 100 Mbps effective.
pub fn default_ap_capacity() -> BitsPerSec {
    BitsPerSec::mbps(100.0)
}

/// AP lists grouped by a controller or building id: the ids ascending,
/// each group's APs in the order they were listed, all groups in one
/// vector. A lookup is a binary search over the ids; a group's rank (its
/// position among the ids) reads its APs with no search.
#[derive(Debug, Clone)]
struct Groups<K> {
    keys: Vec<K>,
    /// Where each group's APs start in `aps`; they run to the next
    /// group's start.
    starts: Vec<usize>,
    aps: Vec<ApId>,
}

impl<K: Ord + Copy> Groups<K> {
    /// Groups `(key, ap)` pairs, keeping each key's APs in pair order.
    fn new(mut pairs: Vec<(K, ApId)>) -> Self {
        pairs.sort_by_key(|&(key, _)| key);
        let mut groups = Groups {
            keys: Vec::new(),
            starts: Vec::new(),
            aps: Vec::with_capacity(pairs.len()),
        };
        for (key, ap) in pairs {
            if groups.keys.last() != Some(&key) {
                groups.keys.push(key);
                groups.starts.push(groups.aps.len());
            }
            groups.aps.push(ap);
        }
        groups
    }

    fn rank(&self, key: K) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    fn of_rank(&self, rank: usize) -> &[ApId] {
        let end = self.starts.get(rank + 1).copied().unwrap_or(self.aps.len());
        &self.aps[self.starts[rank]..end]
    }

    fn of(&self, key: K) -> &[ApId] {
        self.rank(key).map_or(&[], |rank| self.of_rank(rank))
    }
}

/// The campus WLAN topology.
#[derive(Debug, Clone)]
pub struct Topology {
    aps: Vec<ApInfo>,
    by_controller: Groups<ControllerId>,
    by_building: Groups<BuildingId>,
}

impl Topology {
    /// Builds the topology implied by a campus configuration with the
    /// default AP capacity.
    pub fn from_campus(config: &CampusConfig) -> Topology {
        Topology::from_campus_with_capacity(config, default_ap_capacity())
    }

    /// [`Topology::from_campus`] with an explicit uniform AP capacity.
    pub fn from_campus_with_capacity(config: &CampusConfig, capacity: BitsPerSec) -> Topology {
        let mut aps = Vec::with_capacity(config.total_aps());
        let mut by_controller = Vec::with_capacity(config.total_aps());
        let mut by_building = Vec::with_capacity(config.total_aps());
        // APs on a near-square grid inside each building.
        let per_building = config.aps_per_building;
        let cols = (per_building as f64).sqrt().ceil() as usize;
        let rows = per_building.div_ceil(cols);
        for b in 0..config.buildings {
            let building = BuildingId::new(b as u32);
            let controller = config.controller_of(building);
            for (slot, ap) in config.aps_of_building(building).into_iter().enumerate() {
                let col = slot % cols;
                let row = slot / cols;
                let x = BUILDING_SIDE_M * (col as f64 + 0.5) / cols as f64;
                let y = BUILDING_SIDE_M * (row as f64 + 0.5) / rows as f64;
                aps.push(ApInfo {
                    id: ap,
                    building,
                    controller,
                    capacity,
                    position: (x, y),
                });
                by_controller.push((controller, ap));
                by_building.push((building, ap));
            }
        }
        aps.sort_by_key(|a| a.id);
        Topology {
            aps,
            by_controller: Groups::new(by_controller),
            by_building: Groups::new(by_building),
        }
    }

    /// Builds a topology directly from an AP list, deriving the
    /// controller and building maps. Unlike [`Topology::from_campus`]
    /// this trusts the caller: AP ids are *not* required to be dense, so
    /// a sparse or duplicated id list produces a topology on which
    /// [`Topology::ap`] fails for the broken ids — exactly the malformed
    /// input shape the engine must reject with
    /// [`crate::engine::EngineError::MissingAp`] instead of panicking.
    pub fn from_aps(mut aps: Vec<ApInfo>) -> Topology {
        aps.sort_by_key(|a| a.id);
        let by_controller = aps.iter().map(|ap| (ap.controller, ap.id)).collect();
        let by_building = aps.iter().map(|ap| (ap.building, ap.id)).collect();
        Topology {
            aps,
            by_controller: Groups::new(by_controller),
            by_building: Groups::new(by_building),
        }
    }

    /// All APs, ascending by id.
    pub fn aps(&self) -> &[ApInfo] {
        &self.aps
    }

    /// Number of APs.
    pub fn ap_count(&self) -> usize {
        self.aps.len()
    }

    /// Info for one AP, if it exists.
    pub fn ap(&self, id: ApId) -> Option<&ApInfo> {
        self.aps.get(id.index()).filter(|info| info.id == id)
    }

    /// APs managed by `controller` (empty when unknown).
    pub fn aps_of_controller(&self, controller: ControllerId) -> &[ApId] {
        self.by_controller.of(controller)
    }

    /// APs deployed in `building` (empty when unknown).
    pub fn aps_of_building(&self, building: BuildingId) -> &[ApId] {
        self.by_building.of(building)
    }

    /// All controllers, ascending.
    pub fn controllers(&self) -> Vec<ControllerId> {
        self.by_controller.keys.clone()
    }

    /// Position of `controller` in [`Topology::controllers`], or `None`
    /// when it manages no AP.
    pub(crate) fn controller_rank(&self, controller: ControllerId) -> Option<usize> {
        self.by_controller.rank(controller)
    }

    /// APs of the controller at position `rank` of
    /// [`Topology::controllers`].
    pub(crate) fn aps_of_controller_rank(&self, rank: usize) -> &[ApId] {
        self.by_controller.of_rank(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campus() -> CampusConfig {
        CampusConfig::tiny() // 2 buildings × 3 APs
    }

    #[test]
    fn builds_all_aps() {
        let t = Topology::from_campus(&campus());
        assert_eq!(t.ap_count(), 6);
        assert_eq!(t.aps().len(), 6);
        assert_eq!(t.controllers().len(), 2);
        for (i, ap) in t.aps().iter().enumerate() {
            assert_eq!(ap.id.index(), i, "dense ids in order");
        }
    }

    #[test]
    fn controller_and_building_maps_agree_with_config() {
        let cfg = campus();
        let t = Topology::from_campus(&cfg);
        for b in 0..cfg.buildings {
            let building = BuildingId::new(b as u32);
            let controller = cfg.controller_of(building);
            assert_eq!(t.aps_of_building(building), t.aps_of_controller(controller));
            assert_eq!(
                t.aps_of_building(building),
                cfg.aps_of_building(building).as_slice()
            );
        }
        assert!(t.aps_of_controller(ControllerId::new(99)).is_empty());
    }

    #[test]
    fn ap_lookup() {
        let t = Topology::from_campus(&campus());
        let info = t.ap(ApId::new(4)).unwrap();
        assert_eq!(info.building, BuildingId::new(1));
        assert!(t.ap(ApId::new(100)).is_none());
    }

    #[test]
    fn positions_are_inside_the_building_and_distinct() {
        let t = Topology::from_campus(&campus());
        for ap in t.aps() {
            let (x, y) = ap.position;
            assert!((0.0..=BUILDING_SIDE_M).contains(&x));
            assert!((0.0..=BUILDING_SIDE_M).contains(&y));
        }
        // APs of the same building do not coincide.
        let aps = t.aps_of_building(BuildingId::new(0));
        for (i, &a) in aps.iter().enumerate() {
            for &b in &aps[i + 1..] {
                assert_ne!(t.ap(a).unwrap().position, t.ap(b).unwrap().position);
            }
        }
    }

    #[test]
    fn custom_capacity_propagates() {
        let t = Topology::from_campus_with_capacity(&campus(), BitsPerSec::mbps(10.0));
        assert!(t
            .aps()
            .iter()
            .all(|a| (a.capacity.as_f64() - 1e7).abs() < 1e-3));
    }
}
