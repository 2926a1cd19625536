//! The policy table: every AP-selection policy the workspace ships, by
//! `--policy` name.
//!
//! [`Policy`] is the one place a policy name becomes a selector. The CLI
//! parses `--policy` with [`Policy::parse`], lists [`Policy::ALL`] in its
//! usage text, refuses `--shards > 1` unless [`Policy::shardable`], and
//! trains S³ only when [`Policy::trains`]; the ablation grid and
//! `engine_bench` build selectors through [`Policy::build`] too.
//!
//! S³ needs a trained [`SocialModel`]: callers train it once (an LLF
//! replay of the training prefix) and hand the same `Arc` to every
//! [`Policy::build`] call, which clones only the `Arc`, so every shard's
//! [`S3Selector`] queries the same tables.

use std::fmt;
use std::sync::Arc;

use s3_wlan::selector::{ApSelector, LeastLoadedFirst, LeastUsers, RandomSelector, StrongestRssi};
use s3_wlan::strategies::{EpsilonGreedyMab, FlowLevelBalancer, WorkloadClassAware};

use crate::{S3Config, S3Selector, SocialModel};

/// An AP-selection policy: the paper's baselines, S³ itself, and the
/// contenders from related work (see [`s3_wlan::strategies`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Least loaded first, the paper's state-of-the-art baseline.
    Llf,
    /// Fewest associated users first.
    LeastUsers,
    /// Strongest signal, the 802.11 default.
    Rssi,
    /// A uniformly random candidate.
    Random,
    /// Social-aware selection (the paper).
    S3,
    /// Flow-level load balancing (Li, Kong & Wang).
    FlowLb,
    /// Per-user ε-greedy bandit (Carrascosa & Bellalta).
    Mab,
    /// Demand-class routing (Sandholm & Huberman).
    Workload,
}

impl Policy {
    /// Every policy, in presentation order: the order of the usage text,
    /// of the unknown-policy message and of the ablation grid's rows.
    pub const ALL: [Policy; 8] = [
        Policy::Llf,
        Policy::LeastUsers,
        Policy::Rssi,
        Policy::Random,
        Policy::S3,
        Policy::FlowLb,
        Policy::Mab,
        Policy::Workload,
    ];

    /// The `--policy` name, which the decision-trace header records too.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Llf => "llf",
            Policy::LeastUsers => "least-users",
            Policy::Rssi => "rssi",
            Policy::Random => "random",
            Policy::S3 => "s3",
            Policy::FlowLb => "flow-lb",
            Policy::Mab => "mab",
            Policy::Workload => "workload",
        }
    }

    /// One-line summary for the usage text.
    pub fn summary(self) -> &'static str {
        match self {
            Policy::Llf => "least loaded first (arrival-time state of the art)",
            Policy::LeastUsers => "fewest associated users first",
            Policy::Rssi => "strongest signal (802.11 default)",
            Policy::Random => "uniform random candidate (sequential RNG; single-shard only)",
            Policy::S3 => "social-aware selection from a trained co-leave model (the paper)",
            Policy::FlowLb => "flow-level load balancing, max per-flow headroom share (Li et al.)",
            Policy::Mab => "per-user epsilon-greedy bandit over domain APs (Carrascosa & Bellalta)",
            Policy::Workload => {
                "demand-class routing: heavy flows by headroom, light by RSSI (Sandholm & Huberman)"
            }
        }
    }

    /// The policy named `name`.
    ///
    /// # Errors
    ///
    /// [`PolicyError::Unknown`], whose message lists every known name.
    pub fn parse(name: &str) -> Result<Policy, PolicyError> {
        Policy::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| PolicyError::Unknown(name.to_string()))
    }

    /// Whether [`Policy::build`] needs a trained [`SocialModel`]: S³ only.
    pub fn trains(self) -> bool {
        self == Policy::S3
    }

    /// Whether replays are byte-identical at any shard count. Every policy
    /// is but `random`: its decisions draw from one sequential RNG stream,
    /// so splitting arrivals across shards reorders the draws. The ε-greedy
    /// bandit keys its stream by shard-stable ids and shards freely.
    pub fn shardable(self) -> bool {
        self != Policy::Random
    }

    /// A fresh selector of this policy, seeded with the run's `seed`. S³
    /// decides on `model`, which its selector shares; other policies ignore
    /// it.
    ///
    /// # Errors
    ///
    /// [`PolicyError::MissingModel`] for S³ without a model.
    pub fn build(
        self,
        seed: u64,
        model: Option<&Arc<SocialModel>>,
    ) -> Result<Box<dyn ApSelector + Send>, PolicyError> {
        Ok(match self {
            Policy::Llf => Box::new(LeastLoadedFirst::new()),
            Policy::LeastUsers => Box::new(LeastUsers::new()),
            Policy::Rssi => Box::new(StrongestRssi::new()),
            Policy::Random => Box::new(RandomSelector::new(seed)),
            Policy::S3 => {
                let model = model.ok_or(PolicyError::MissingModel)?;
                Box::new(S3Selector::new(Arc::clone(model), S3Config::default()))
            }
            Policy::FlowLb => Box::new(FlowLevelBalancer::new()),
            Policy::Mab => Box::new(EpsilonGreedyMab::new(seed)),
            Policy::Workload => Box::new(WorkloadClassAware::new()),
        })
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why [`Policy::parse`] or [`Policy::build`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// No policy has this name.
    Unknown(String),
    /// S³ was built without a trained model.
    MissingModel,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Unknown(name) => {
                let known: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
                write!(f, "unknown policy {name:?} (known: {})", known.join(", "))
            }
            PolicyError::MissingModel => write!(f, "policy s3 needs a trained model"),
        }
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_trace::TraceStore;

    fn empty_model() -> Arc<SocialModel> {
        Arc::new(SocialModel::learn(
            &TraceStore::new(Vec::new()),
            &S3Config::default(),
            1,
        ))
    }

    #[test]
    fn all_lists_the_eight_policies_in_presentation_order() {
        let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "llf",
                "least-users",
                "rssi",
                "random",
                "s3",
                "flow-lb",
                "mab",
                "workload"
            ]
        );
    }

    #[test]
    fn every_name_parses_back_to_its_policy() {
        for (i, policy) in Policy::ALL.into_iter().enumerate() {
            assert_eq!(Policy::parse(policy.name()), Ok(policy));
            assert_eq!(policy.to_string(), policy.name());
            // No name is listed twice, so parsing is unambiguous.
            assert!(
                Policy::ALL[..i].iter().all(|p| p.name() != policy.name()),
                "{policy} listed twice"
            );
        }
    }

    #[test]
    fn parse_refuses_an_unknown_name_listing_every_policy() {
        let err = Policy::parse("slf").unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown policy \"slf\" (known: llf, least-users, rssi, random, s3, flow-lb, mab, \
             workload)"
        );
    }

    #[test]
    fn only_s3_trains_and_only_random_is_unshardable() {
        for policy in Policy::ALL {
            assert_eq!(policy.trains(), policy == Policy::S3, "{policy}");
            assert_eq!(policy.shardable(), policy != Policy::Random, "{policy}");
        }
    }

    #[test]
    fn built_selectors_report_expected_names() {
        let model = empty_model();
        for (policy, selector_name) in [
            (Policy::Llf, "llf"),
            (Policy::LeastUsers, "least-users"),
            (Policy::Rssi, "strongest-rssi"),
            (Policy::Random, "random"),
            (Policy::FlowLb, "flow-lb"),
            (Policy::Mab, "mab"),
            (Policy::Workload, "workload"),
        ] {
            assert_eq!(policy.build(7, None).unwrap().name(), selector_name);
            // A model is ignored by every policy but S³.
            assert_eq!(policy.build(7, Some(&model)).unwrap().name(), selector_name);
        }
    }

    #[test]
    fn s3_builds_from_a_trained_model() {
        let model = empty_model();
        let selector = Policy::S3.build(1, Some(&model)).unwrap();
        assert_eq!(selector.name(), "s3");
        // The selector holds a clone of the caller's `Arc`, not a copy of
        // the model.
        assert_eq!(Arc::strong_count(&model), 2);
    }

    #[test]
    fn s3_needs_a_model() {
        let err = Policy::S3.build(1, None).err().expect("no model must fail");
        assert_eq!(err, PolicyError::MissingModel);
    }

    #[test]
    fn s3_shards_share_one_model() {
        let model = empty_model();
        let selectors: Vec<_> = (0..4)
            .map(|_| Policy::S3.build(1, Some(&model)).unwrap())
            .collect();
        // Four shard selectors, one model: the caller's `Arc` plus one
        // clone per selector.
        assert_eq!(Arc::strong_count(&model), 5);
        drop(selectors);
        assert_eq!(Arc::strong_count(&model), 1);
    }
}
