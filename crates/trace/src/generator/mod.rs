//! The synthetic campus trace generator.
//!
//! Substitutes the paper's proprietary SJTU trace (see DESIGN.md): it
//! synthesizes a campus of buildings (one WLAN controller each), a
//! population of users with latent application-profile types, social groups
//! with weekly class schedules whose members arrive and leave together, and
//! a stream of independent diurnal "noise" sessions.
//!
//! The generator emits [`SessionDemand`]s — *who* is present *where*,
//! *when*, with *what* traffic — and leaves AP choice to a selection policy
//! (that is the variable under study). [`Campus::ground_truth`] retains the
//! planted structure for validation; the S³ algorithm never sees it.

pub mod faults;
mod profiles;
pub mod scenario;
mod schedule;

pub use faults::{inject_csv_faults, FaultLog, FaultSpec};
pub use profiles::{
    dirichlet_around, type_centroid, UserProfile, TYPE_CENTROIDS, TYPE_VOLUME_FACTOR,
    USER_TYPE_COUNT,
};
pub use scenario::{apply_scenario, CapacityProfile, ScenarioLog, ScenarioSpec};
pub use schedule::{
    is_leave_peak_hour, is_peak_hour, sample_class_slot, sample_diurnal_hour,
    sample_noise_duration, sample_weekly_schedule, ClassSlot, Meeting, CLASS_SLOTS,
    DIURNAL_WEIGHTS,
};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use s3_stats::rng::{bernoulli, log_normal, poisson, truncated_normal, ZipfCache};
use s3_types::{
    ApId, BuildingId, Bytes, ControllerId, GroupId, TimeDelta, Timestamp, UserId,
    APP_CATEGORY_COUNT, SECS_PER_DAY,
};

use crate::record::zero_volumes;
use crate::{FlowRecord, SessionDemand};

/// Parameters of the synthetic campus.
#[derive(Debug, Clone, PartialEq)]
pub struct CampusConfig {
    /// Number of buildings; each building hosts one controller.
    pub buildings: usize,
    /// APs per building.
    pub aps_per_building: usize,
    /// Number of users.
    pub users: usize,
    /// Number of simulated days.
    pub days: u64,
    /// Fraction of users belonging to at least one social group.
    pub social_fraction: f64,
    /// Mean group size.
    pub group_size_mean: f64,
    /// Probability that a group member is drawn from the group's dominant
    /// latent type (Table I's diagonal dominance scales with this).
    pub type_homogeneity: f64,
    /// Probability a member attends any given meeting occurrence.
    pub attend_prob: f64,
    /// Std-dev of arrival jitter around a meeting start, seconds.
    pub arrive_jitter_sd: f64,
    /// Std-dev of departure jitter around a meeting end, seconds.
    pub depart_jitter_sd: f64,
    /// Mean independent sessions per user per weekday.
    pub noise_sessions_per_day: f64,
    /// Weekend multiplier on all activity.
    pub weekend_factor: f64,
    /// μ of the log-normal session volume (log-bytes at 1 h duration).
    pub volume_mu: f64,
    /// σ of the log-normal session volume.
    pub volume_sigma: f64,
    /// Dirichlet concentration of per-user base profiles around centroids.
    pub base_concentration: f64,
    /// Dirichlet concentration of weekly mixes around the base profile.
    pub weekly_concentration: f64,
    /// Dirichlet concentration of daily noise around the weekly mix.
    pub daily_concentration: f64,
    /// Meetings per group per week.
    pub meetings_per_week: usize,
}

impl CampusConfig {
    /// The default evaluation campus: 8 buildings × 8 APs, 2,000 users,
    /// 31 days — large enough for every experiment, fast enough for CI.
    pub fn campus() -> Self {
        CampusConfig {
            buildings: 8,
            aps_per_building: 8,
            users: 2_000,
            days: 31,
            social_fraction: 0.7,
            group_size_mean: 12.0,
            type_homogeneity: 0.8,
            attend_prob: 0.85,
            arrive_jitter_sd: 240.0,
            depart_jitter_sd: 150.0,
            noise_sessions_per_day: 1.2,
            weekend_factor: 0.35,
            volume_mu: (25e6f64).ln(),
            volume_sigma: 0.6,
            base_concentration: 150.0,
            weekly_concentration: 80.0,
            daily_concentration: 25.0,
            meetings_per_week: 3,
        }
    }

    /// A miniature campus for unit tests and doc examples: 2 buildings,
    /// ~40 users, 3 days.
    pub fn tiny() -> Self {
        CampusConfig {
            buildings: 2,
            aps_per_building: 3,
            users: 40,
            days: 3,
            ..CampusConfig::campus()
        }
    }

    /// The paper's reported scale: 22 buildings / 334 APs / 12,374 users /
    /// 90 days. Slow; used only with `--paper-scale`.
    pub fn paper_scale() -> Self {
        CampusConfig {
            buildings: 22,
            aps_per_building: 16, // 352 APs ≈ the paper's 334
            users: 12_374,
            days: 90,
            ..CampusConfig::campus()
        }
    }

    /// Total number of APs.
    pub fn total_aps(&self) -> usize {
        self.buildings * self.aps_per_building
    }

    /// The APs of `building`, as dense ids
    /// `[building · aps_per_building, (building+1) · aps_per_building)`.
    pub fn aps_of_building(&self, building: BuildingId) -> Vec<ApId> {
        let base = building.index() * self.aps_per_building;
        (base..base + self.aps_per_building)
            .map(|i| ApId::new(i as u32))
            .collect()
    }

    /// The controller of `building` (one per building).
    pub fn controller_of(&self, building: BuildingId) -> ControllerId {
        ControllerId::new(building.raw())
    }
}

/// A planted social group.
#[derive(Debug, Clone)]
pub struct Group {
    /// Group id.
    pub id: GroupId,
    /// Member users.
    pub members: Vec<UserId>,
    /// Building where the group meets.
    pub building: BuildingId,
    /// Dominant latent type of the group.
    pub dominant_type: usize,
    /// Weekly meeting schedule.
    pub meetings: Vec<Meeting>,
}

/// The planted structure behind a generated trace — for validation only.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Latent type per user (indexed by `UserId::index`).
    pub user_types: Vec<usize>,
    /// Profile model per user.
    pub profiles: Vec<UserProfile>,
    /// Home building per user.
    pub home_building: Vec<BuildingId>,
    /// All groups.
    pub groups: Vec<Group>,
}

/// A generated campus trace: the demand stream plus its ground truth.
#[derive(Debug, Clone)]
pub struct Campus {
    /// The configuration that produced this campus.
    pub config: CampusConfig,
    /// All session demands, sorted by arrival time.
    pub demands: Vec<SessionDemand>,
    /// The planted structure.
    pub ground_truth: GroundTruth,
}

/// Deterministic generator: same `(config, seed)` → identical trace.
#[derive(Debug)]
pub struct CampusGenerator {
    config: CampusConfig,
    rng: StdRng,
}

impl CampusGenerator {
    /// Creates a generator for `config` seeded with `seed`.
    pub fn new(config: CampusConfig, seed: u64) -> Self {
        CampusGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the full campus trace, threading one RNG stream through
    /// population, group sessions and noise. Its byte stream is pinned: the
    /// figure goldens, `results/` and `replaybench` depend on it.
    pub fn generate(mut self) -> Campus {
        let ground_truth = self.synthesize_population();
        let home_zipf = ZipfCache::new(self.config.buildings, 0.8);
        let mut demands = Vec::new();
        for group in &ground_truth.groups {
            emit_group_sessions(
                &self.config,
                &ground_truth,
                group,
                &mut self.rng,
                &mut demands,
            );
        }
        for user_index in 0..self.config.users {
            emit_noise_sessions(
                &self.config,
                &ground_truth,
                &home_zipf,
                user_index,
                &mut self.rng,
                &mut demands,
            );
        }
        demands.sort_by_key(|d| (d.arrive, d.user));
        Campus {
            config: self.config,
            demands,
            ground_truth,
        }
    }

    fn synthesize_population(&mut self) -> GroundTruth {
        let cfg = &self.config;
        let n = cfg.users;
        let mut user_types = Vec::with_capacity(n);
        let mut profiles = Vec::with_capacity(n);
        let mut home_building = Vec::with_capacity(n);
        let home_zipf = ZipfCache::new(cfg.buildings, 0.8);
        let group_zipf = ZipfCache::new(cfg.buildings, 0.6);
        for _ in 0..n {
            let t = self.rng.random_range(0..USER_TYPE_COUNT);
            user_types.push(t);
            let volume_scale = log_normal(&mut self.rng, 0.0, 0.3);
            profiles.push(UserProfile::synthesize(
                &mut self.rng,
                t,
                cfg.base_concentration,
                cfg.weekly_concentration,
                volume_scale,
            ));
            let b = home_zipf.sample(&mut self.rng);
            home_building.push(BuildingId::new(b as u32));
        }

        // Partition the social users into groups.
        let mut social_users: Vec<UserId> =
            (0..n as u32).map(UserId::new).filter(|_| true).collect();
        // Deterministic shuffle via index sampling.
        for i in (1..social_users.len()).rev() {
            let j = self.rng.random_range(0..=i);
            social_users.swap(i, j);
        }
        let social_count = (n as f64 * self.config.social_fraction) as usize;
        social_users.truncate(social_count);

        let mut users_by_type: Vec<Vec<UserId>> = vec![Vec::new(); USER_TYPE_COUNT];
        for &u in &social_users {
            users_by_type[user_types[u.index()]].push(u);
        }

        let mut groups = Vec::new();
        let mut unassigned: Vec<UserId> = social_users.clone();
        let mut group_id = 0u32;
        while !unassigned.is_empty() {
            let size = (poisson(&mut self.rng, self.config.group_size_mean) as usize).clamp(3, 40);
            let dominant_type = self.rng.random_range(0..USER_TYPE_COUNT);
            let mut members = Vec::with_capacity(size);
            let mut guard = 0;
            while members.len() < size && !unassigned.is_empty() && guard < size * 20 {
                guard += 1;
                // With probability `type_homogeneity` insist on the dominant
                // type; otherwise take anyone.
                let want_type = bernoulli(&mut self.rng, self.config.type_homogeneity);
                let pick = if want_type {
                    unassigned
                        .iter()
                        .position(|u| user_types[u.index()] == dominant_type)
                } else {
                    None
                };
                let idx = match pick {
                    Some(i) => i,
                    None => self.rng.random_range(0..unassigned.len()),
                };
                members.push(unassigned.swap_remove(idx));
            }
            if members.len() < 2 {
                // Too few to be a social group; the leftovers become
                // independent users.
                break;
            }
            let building = BuildingId::new(group_zipf.sample(&mut self.rng) as u32);
            let meetings = sample_weekly_schedule(&mut self.rng, self.config.meetings_per_week);
            groups.push(Group {
                id: GroupId::new(group_id),
                members,
                building,
                dominant_type,
                meetings,
            });
            group_id += 1;
        }

        GroundTruth {
            user_types,
            profiles,
            home_building,
            groups,
        }
    }
}

/// One session volume draw: log-normal, scaled by duration, user scale
/// and the type's heaviness factor, then split across realms by the
/// user's daily mix.
fn draw_volumes(
    cfg: &CampusConfig,
    rng: &mut StdRng,
    profile: &UserProfile,
    day: u64,
    duration: TimeDelta,
) -> [Bytes; APP_CATEGORY_COUNT] {
    let mix = profile.daily_mix(rng, day, cfg.daily_concentration);
    let base = log_normal(rng, cfg.volume_mu, cfg.volume_sigma);
    let hours = (duration.as_secs_f64() / 3600.0).max(0.05);
    let total = base * hours * profile.volume_scale * TYPE_VOLUME_FACTOR[profile.user_type];
    let mut volumes = zero_volumes();
    for (i, share) in mix.shares().iter().enumerate() {
        volumes[i] = Bytes::new((total * share) as u64);
    }
    volumes
}

/// Emits all meeting attendances of one group across the configured days,
/// drawing from `rng`. Shared by the sequential and parallel generators;
/// the draw order per group is part of the pinned byte stream.
fn emit_group_sessions(
    cfg: &CampusConfig,
    truth: &GroundTruth,
    group: &Group,
    rng: &mut StdRng,
    out: &mut Vec<SessionDemand>,
) {
    let controller = cfg.controller_of(group.building);
    for day in 0..cfg.days {
        let weekend = day % 7 >= 5;
        for meeting in &group.meetings {
            let Some((start, end)) = meeting.occurrence_on(day) else {
                continue;
            };
            for &user in &group.members {
                let mut attend = cfg.attend_prob;
                if weekend {
                    attend *= cfg.weekend_factor;
                }
                if !bernoulli(rng, attend) {
                    continue;
                }
                let arrive_jitter = truncated_normal(
                    rng,
                    0.0,
                    cfg.arrive_jitter_sd,
                    -3.0 * cfg.arrive_jitter_sd,
                    3.0 * cfg.arrive_jitter_sd,
                );
                let depart_jitter = truncated_normal(
                    rng,
                    0.0,
                    cfg.depart_jitter_sd,
                    -3.0 * cfg.depart_jitter_sd,
                    3.0 * cfg.depart_jitter_sd,
                );
                let arrive =
                    Timestamp::from_secs((start.as_secs() as f64 + arrive_jitter).max(0.0) as u64);
                let depart_secs = (end.as_secs() as f64 + depart_jitter).max(0.0) as u64;
                let depart = Timestamp::from_secs(depart_secs.max(arrive.as_secs() + 60));
                let duration = depart.saturating_sub(arrive);
                let profile = &truth.profiles[user.index()];
                let volume_by_app = draw_volumes(cfg, rng, profile, day, duration);
                out.push(SessionDemand {
                    user,
                    building: group.building,
                    controller,
                    arrive,
                    depart,
                    volume_by_app,
                });
            }
        }
    }
}

/// Emits all independent diurnal sessions of one user across the configured
/// days, drawing from `rng`. Shared by the sequential and parallel
/// generators; the draw order per user is part of the pinned byte stream.
fn emit_noise_sessions(
    cfg: &CampusConfig,
    truth: &GroundTruth,
    home_zipf: &ZipfCache,
    user_index: usize,
    rng: &mut StdRng,
    out: &mut Vec<SessionDemand>,
) {
    let user = UserId::new(user_index as u32);
    let profile = &truth.profiles[user_index];
    for day in 0..cfg.days {
        let weekend = day % 7 >= 5;
        let mut rate = cfg.noise_sessions_per_day;
        if weekend {
            rate *= cfg.weekend_factor;
        }
        let sessions = poisson(rng, rate);
        for _ in 0..sessions {
            let hour = sample_diurnal_hour(rng);
            let offset = rng.random_range(0..3_600u64);
            let arrive = Timestamp::from_secs(day * SECS_PER_DAY + hour * 3_600 + offset);
            let duration = sample_noise_duration(rng);
            let depart = arrive + duration;
            // 70 % home building, otherwise a popularity-weighted one.
            let building = if bernoulli(rng, 0.7) {
                truth.home_building[user_index]
            } else {
                BuildingId::new(home_zipf.sample(rng) as u32)
            };
            let volume_by_app = draw_volumes(cfg, rng, profile, day, duration);
            out.push(SessionDemand {
                user,
                building,
                controller: cfg.controller_of(building),
                arrive,
                depart,
                volume_by_app,
            });
        }
    }
}

/// Expands a session demand into synthetic router flows on the canonical
/// port of each realm (splitting each realm's volume into 1–4 flows), with
/// a small share of unclassifiable traffic on ephemeral ports.
pub fn generate_flows(demand: &SessionDemand, rng: &mut StdRng) -> Vec<FlowRecord> {
    let mut flows = Vec::new();
    for (i, &volume) in demand.volume_by_app.iter().enumerate() {
        if volume.is_zero() {
            continue;
        }
        let category = s3_types::AppCategory::from_index(i).expect("valid index");
        let (protocol, port) = crate::classify::canonical_port(category);
        let pieces = rng.random_range(1..=4u32);
        let share = volume.as_u64() / pieces as u64;
        for p in 0..pieces {
            let bytes = if p == pieces - 1 {
                volume.as_u64() - share * (pieces as u64 - 1)
            } else {
                share
            };
            flows.push(FlowRecord {
                user: demand.user,
                start: demand.arrive + TimeDelta::secs(p as u64 * 30),
                protocol,
                server_port: port,
                bytes: Bytes::new(bytes),
            });
        }
    }
    // ~2 % of volume on an unknown ephemeral port (the paper's long tail).
    if bernoulli(rng, 0.5) {
        let tail = demand.total_volume().as_u64() / 50;
        if tail > 0 {
            flows.push(FlowRecord {
                user: demand.user,
                start: demand.arrive,
                protocol: crate::TransportProtocol::Tcp,
                server_port: rng.random_range(49_152..65_535),
                bytes: Bytes::new(tail),
            });
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::aggregate_flows;

    fn tiny_campus(seed: u64) -> Campus {
        CampusGenerator::new(CampusConfig::tiny(), seed).generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_campus(7);
        let b = tiny_campus(7);
        assert_eq!(a.demands, b.demands);
        let c = tiny_campus(8);
        assert_ne!(a.demands, c.demands);
    }

    #[test]
    fn demands_are_sorted_and_well_formed() {
        let campus = tiny_campus(1);
        assert!(!campus.demands.is_empty());
        for w in campus.demands.windows(2) {
            assert!(w[0].arrive <= w[1].arrive);
        }
        for d in &campus.demands {
            assert!(d.depart > d.arrive, "session must have positive length");
            assert!(d.building.index() < campus.config.buildings);
            assert_eq!(d.controller, campus.config.controller_of(d.building));
            assert!(d.arrive.day() < campus.config.days + 1);
        }
    }

    #[test]
    fn every_group_member_shares_building_sessions() {
        let campus = tiny_campus(2);
        // At least one group must have produced co-located sessions.
        let group = campus
            .ground_truth
            .groups
            .iter()
            .find(|g| g.members.len() >= 3)
            .expect("tiny campus still has groups");
        let member_sessions: Vec<&SessionDemand> = campus
            .demands
            .iter()
            .filter(|d| group.members.contains(&d.user) && d.building == group.building)
            .collect();
        assert!(
            !member_sessions.is_empty(),
            "group {} produced no sessions in its building",
            group.id
        );
    }

    #[test]
    fn group_departures_cluster_in_time() {
        let campus = CampusGenerator::new(
            CampusConfig {
                users: 200,
                days: 7,
                ..CampusConfig::tiny()
            },
            3,
        )
        .generate();
        let group = campus
            .ground_truth
            .groups
            .iter()
            .max_by_key(|g| g.members.len())
            .expect("groups exist");
        let meeting = group.meetings[0];
        // Find the first weekday occurrence.
        let day = (0..7)
            .find(|&d| meeting.occurrence_on(d).is_some())
            .unwrap();
        let (_, end) = meeting.occurrence_on(day).unwrap();
        let departures: Vec<u64> = campus
            .demands
            .iter()
            .filter(|d| {
                group.members.contains(&d.user)
                    && d.building == group.building
                    && d.depart.abs_diff(end) <= TimeDelta::minutes(10)
            })
            .map(|d| d.depart.as_secs())
            .collect();
        assert!(
            departures.len() >= 2,
            "expected clustered departures near meeting end, got {departures:?}"
        );
    }

    #[test]
    fn ground_truth_covers_population() {
        let campus = tiny_campus(4);
        let cfg = &campus.config;
        assert_eq!(campus.ground_truth.user_types.len(), cfg.users);
        assert_eq!(campus.ground_truth.profiles.len(), cfg.users);
        assert_eq!(campus.ground_truth.home_building.len(), cfg.users);
        assert!(campus
            .ground_truth
            .user_types
            .iter()
            .all(|&t| t < USER_TYPE_COUNT));
        for g in &campus.ground_truth.groups {
            assert!(g.members.len() >= 2);
            assert!(g.building.index() < cfg.buildings);
            assert!(!g.meetings.is_empty());
        }
    }

    #[test]
    fn groups_are_mostly_type_homogeneous() {
        let campus = CampusGenerator::new(
            CampusConfig {
                users: 600,
                ..CampusConfig::tiny()
            },
            5,
        )
        .generate();
        let truth = &campus.ground_truth;
        let mut dominant_hits = 0usize;
        let mut total = 0usize;
        for g in &truth.groups {
            for &m in &g.members {
                total += 1;
                if truth.user_types[m.index()] == g.dominant_type {
                    dominant_hits += 1;
                }
            }
        }
        let ratio = dominant_hits as f64 / total as f64;
        assert!(ratio > 0.55, "homogeneity too low: {ratio}");
    }

    #[test]
    fn config_topology_helpers() {
        let cfg = CampusConfig::tiny();
        assert_eq!(cfg.total_aps(), 6);
        let aps = cfg.aps_of_building(BuildingId::new(1));
        assert_eq!(aps, vec![ApId::new(3), ApId::new(4), ApId::new(5)]);
        assert_eq!(cfg.controller_of(BuildingId::new(1)), ControllerId::new(1));
    }

    #[test]
    fn paper_scale_matches_reported_numbers() {
        let cfg = CampusConfig::paper_scale();
        assert_eq!(cfg.buildings, 22);
        assert_eq!(cfg.users, 12_374);
        assert_eq!(cfg.days, 90);
        assert!(cfg.total_aps() >= 334);
    }

    #[test]
    fn flows_classify_back_to_their_realms() {
        let campus = tiny_campus(6);
        let demand = campus
            .demands
            .iter()
            .find(|d| !d.total_volume().is_zero())
            .expect("some session has traffic");
        let mut rng = StdRng::seed_from_u64(9);
        let flows = generate_flows(demand, &mut rng);
        assert!(!flows.is_empty());
        let (volumes, unclassified) = aggregate_flows(&flows);
        for (i, v) in volumes.iter().enumerate() {
            assert_eq!(
                v.as_u64(),
                demand.volume_by_app[i].as_u64(),
                "realm {i} volume mismatch"
            );
        }
        // Tail traffic is small relative to the session.
        assert!(unclassified.as_u64() <= demand.total_volume().as_u64() / 40);
    }

    #[test]
    fn diurnal_structure_shows_in_arrivals() {
        let campus = CampusGenerator::new(
            CampusConfig {
                users: 400,
                days: 7,
                social_fraction: 0.0, // noise only: pure diurnal signal
                ..CampusConfig::tiny()
            },
            11,
        )
        .generate();
        let mut by_hour = [0u32; 24];
        for d in &campus.demands {
            by_hour[d.arrive.hour_of_day() as usize] += 1;
        }
        assert!(by_hour[10] > by_hour[3] * 3, "by_hour: {by_hour:?}");
    }
}
