//! The pluggable strategy registry: name → selector factory + capability
//! flags.
//!
//! Before this module each layer hard-coded the policy list — the CLI's
//! argument parser, the replay/trace selector construction, the shard
//! clone path and the bench binaries all dispatched on policy names by
//! hand, so adding a strategy meant touching every one of them. A
//! [`StrategyRegistry`] replaces that: each strategy registers once with
//! a factory and its [`StrategyCaps`], and every consumer (CLI parsing,
//! replay, trace, sharded runs, the ablation grid) asks the registry.
//!
//! # Capability flags
//!
//! * `needs_training` — the factory requires a trained artifact (the S³
//!   compiled social model) passed through [`BuildContext::artifact`].
//!   Consumers that train (the CLI, the bench harness) do so once and
//!   hand the same artifact to every shard's factory call.
//! * `shardable` — the strategy is deterministic under the sharded
//!   engine: byte-identical output at any `--shards`. Strategies whose
//!   decisions consume a shared sequential RNG stream (the `random`
//!   baseline) are not; strategies whose state and randomness key off
//!   shard-stable ids (the ε-greedy MAB) are. [`StrategyRegistry::build_shards`]
//!   enforces the flag, which is also surfaced at CLI parse time.
//! * `produces_meta` — [`crate::ApSelector::last_batch_meta`] returns
//!   per-decision metadata (clique ids, degraded flags) that the
//!   decision-trace harness records.
//!
//! The registry in this crate only knows the training-free strategies; the
//! `s3-core` crate layers the S³ strategy on top (it owns the model type)
//! and exposes the complete default registry to the CLI and benches.

use std::any::Any;
use std::fmt;

use crate::selector::ApSelector;
use crate::selector::{LeastLoadedFirst, LeastUsers, RandomSelector, StrongestRssi};
use crate::strategies::{EpsilonGreedyMab, FlowLevelBalancer, WorkloadClassAware};

/// Capability flags of a registered strategy (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyCaps {
    /// The factory requires a trained artifact in [`BuildContext::artifact`].
    pub needs_training: bool,
    /// Byte-identical output at any `--shards`; enforced by
    /// [`StrategyRegistry::build_shards`].
    pub shardable: bool,
    /// [`crate::ApSelector::last_batch_meta`] yields decision metadata.
    pub produces_meta: bool,
}

/// Everything a strategy factory may consume.
pub struct BuildContext<'a> {
    /// Deterministic seed shared by the whole run.
    pub seed: u64,
    /// Index of the engine shard this selector instance will serve
    /// (`0` for unsharded runs).
    pub shard: usize,
    /// Worker-thread budget (`0` = auto), for strategies with internal
    /// parallelism.
    pub threads: usize,
    /// Trained artifact for `needs_training` strategies (downcast with
    /// [`BuildContext::artifact`]); `None` otherwise.
    pub artifact: Option<&'a (dyn Any + Send + Sync)>,
}

impl<'a> BuildContext<'a> {
    /// A context with no artifact for shard 0 — what unsharded,
    /// training-free consumers need.
    pub fn new(seed: u64, threads: usize) -> Self {
        BuildContext {
            seed,
            shard: 0,
            threads,
            artifact: None,
        }
    }

    /// The trained artifact downcast to `T`, if one of that type was
    /// provided.
    pub fn artifact<T: Any>(&self) -> Option<&'a T> {
        self.artifact.and_then(|a| a.downcast_ref::<T>())
    }
}

impl fmt::Debug for BuildContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuildContext")
            .field("seed", &self.seed)
            .field("shard", &self.shard)
            .field("threads", &self.threads)
            .field("artifact", &self.artifact.is_some())
            .finish()
    }
}

/// Why a strategy lookup or factory call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyError {
    /// No strategy registered under the name; carries the known names.
    Unknown {
        /// The name that failed to resolve.
        name: String,
        /// Registered names, in registration order.
        known: Vec<&'static str>,
    },
    /// `build_shards` with `shards > 1` on a strategy whose caps say it is
    /// not deterministic under sharding.
    NotShardable(&'static str),
    /// A `needs_training` factory was called without (or with the wrong
    /// type of) trained artifact.
    MissingArtifact(&'static str),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::Unknown { name, known } => {
                write!(f, "unknown policy {name:?} (known: {})", known.join(", "))
            }
            StrategyError::NotShardable(name) => write!(
                f,
                "--shards > 1 is not supported for --policy {name}: the strategy \
                 is not deterministic under sharding (see docs/STRATEGIES.md)"
            ),
            StrategyError::MissingArtifact(name) => write!(
                f,
                "policy {name} needs a trained model artifact in the build context"
            ),
        }
    }
}

impl std::error::Error for StrategyError {}

/// A selector factory; called once per engine shard.
pub type BuildFn = Box<
    dyn Fn(&BuildContext<'_>) -> Result<Box<dyn ApSelector + Send>, StrategyError> + Send + Sync,
>;

/// One registered strategy: canonical name, one-line summary, capability
/// flags and factory.
pub struct Strategy {
    name: &'static str,
    summary: &'static str,
    caps: StrategyCaps,
    build: BuildFn,
}

impl Strategy {
    /// The canonical policy name (what `--policy` accepts and what the
    /// decision-trace header records).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line human summary for listings.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Capability flags.
    pub fn caps(&self) -> StrategyCaps {
        self.caps
    }

    /// Builds one selector instance for `ctx`.
    pub fn build(
        &self,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn ApSelector + Send>, StrategyError> {
        (self.build)(ctx)
    }
}

impl fmt::Debug for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Strategy")
            .field("name", &self.name)
            .field("caps", &self.caps)
            .finish()
    }
}

/// The registry: an ordered collection of [`Strategy`] entries.
///
/// Registration order is presentation order — it is what
/// [`StrategyRegistry::names`] yields and what error messages and the
/// ablation grid iterate.
#[derive(Debug, Default)]
pub struct StrategyRegistry {
    entries: Vec<Strategy>,
}

impl StrategyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        StrategyRegistry::default()
    }

    /// Registers a strategy. Panics on a duplicate name — registries are
    /// assembled once at startup from static registration lists, so a
    /// duplicate is a programming error.
    pub fn register(
        &mut self,
        name: &'static str,
        summary: &'static str,
        caps: StrategyCaps,
        build: BuildFn,
    ) {
        assert!(
            self.get(name).is_none(),
            "strategy {name:?} registered twice"
        );
        self.entries.push(Strategy {
            name,
            summary,
            caps,
            build,
        });
    }

    /// Looks up a strategy by canonical name.
    pub fn get(&self, name: &str) -> Option<&Strategy> {
        self.entries.iter().find(|s| s.name == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|s| s.name)
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> impl Iterator<Item = &Strategy> + '_ {
        self.entries.iter()
    }

    /// An [`StrategyError::Unknown`] naming every registered strategy.
    pub fn unknown(&self, name: &str) -> StrategyError {
        StrategyError::Unknown {
            name: name.to_string(),
            known: self.names().collect(),
        }
    }

    /// Builds one selector instance of `name` for `ctx`.
    pub fn build(
        &self,
        name: &str,
        ctx: &BuildContext<'_>,
    ) -> Result<Box<dyn ApSelector + Send>, StrategyError> {
        self.get(name).ok_or_else(|| self.unknown(name))?.build(ctx)
    }

    /// Builds one selector per engine shard — the single code path behind
    /// both unsharded replay (`shards == 1`) and the sharded engine, so
    /// "with one shard this is exactly the unsharded construction" holds
    /// by definition. Enforces [`StrategyCaps::shardable`] for
    /// `shards > 1`.
    pub fn build_shards(
        &self,
        name: &str,
        shards: usize,
        seed: u64,
        threads: usize,
        artifact: Option<&(dyn Any + Send + Sync)>,
    ) -> Result<Vec<Box<dyn ApSelector + Send>>, StrategyError> {
        let entry = self.get(name).ok_or_else(|| self.unknown(name))?;
        if shards > 1 && !entry.caps.shardable {
            return Err(StrategyError::NotShardable(entry.name));
        }
        (0..shards.max(1))
            .map(|shard| {
                entry.build(&BuildContext {
                    seed,
                    shard,
                    threads,
                    artifact,
                })
            })
            .collect()
    }
}

/// Registers the paper's four baseline policies: `llf`, `least-users`,
/// `rssi` and `random`.
///
/// `random` is the one strategy not deterministic under sharding: its
/// decisions consume a single sequential RNG stream, so splitting arrivals
/// across shards reorders the draws.
pub fn register_baselines(reg: &mut StrategyRegistry) {
    reg.register(
        "llf",
        "least loaded first (arrival-time state of the art)",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|_| Ok(Box::new(LeastLoadedFirst::new()))),
    );
    reg.register(
        "least-users",
        "fewest associated users first",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|_| Ok(Box::new(LeastUsers::new()))),
    );
    reg.register(
        "rssi",
        "strongest signal (802.11 default)",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|_| Ok(Box::new(StrongestRssi::new()))),
    );
    reg.register(
        "random",
        "uniform random candidate (sequential RNG; single-shard only)",
        StrategyCaps::default(),
        Box::new(|ctx| Ok(Box::new(RandomSelector::new(ctx.seed)))),
    );
}

/// Registers the contender strategies from related work: `flow-lb`, `mab`
/// and `workload` (see [`crate::strategies`]).
pub fn register_contenders(reg: &mut StrategyRegistry) {
    reg.register(
        "flow-lb",
        "flow-level load balancing, max per-flow headroom share (Li et al.)",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|_| Ok(Box::new(FlowLevelBalancer::new()))),
    );
    reg.register(
        "mab",
        "per-user epsilon-greedy bandit over domain APs (Carrascosa & Bellalta)",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|ctx| Ok(Box::new(EpsilonGreedyMab::new(ctx.seed)))),
    );
    reg.register(
        "workload",
        "demand-class routing: heavy flows by headroom, light by RSSI (Sandholm & Huberman)",
        StrategyCaps {
            shardable: true,
            ..StrategyCaps::default()
        },
        Box::new(|_| Ok(Box::new(WorkloadClassAware::new()))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> StrategyRegistry {
        let mut reg = StrategyRegistry::new();
        register_baselines(&mut reg);
        register_contenders(&mut reg);
        reg
    }

    #[test]
    fn registers_in_presentation_order() {
        let reg = registry();
        let names: Vec<&str> = reg.names().collect();
        assert_eq!(
            names,
            vec![
                "llf",
                "least-users",
                "rssi",
                "random",
                "flow-lb",
                "mab",
                "workload"
            ]
        );
    }

    #[test]
    fn unknown_name_lists_known_strategies() {
        let reg = registry();
        let err = reg
            .build("slf", &BuildContext::new(1, 0))
            .err()
            .expect("unknown name must fail");
        let msg = err.to_string();
        assert!(msg.contains("unknown policy \"slf\""), "{msg}");
        assert!(msg.contains("llf"), "{msg}");
        assert!(msg.contains("mab"), "{msg}");
    }

    #[test]
    fn build_shards_enforces_the_shardable_flag() {
        let reg = registry();
        let err = reg
            .build_shards("random", 2, 1, 0, None)
            .err()
            .expect("random must be rejected at 2 shards");
        assert_eq!(err, StrategyError::NotShardable("random"));
        // One shard is always fine, and shardable strategies clone freely.
        assert_eq!(reg.build_shards("random", 1, 1, 0, None).unwrap().len(), 1);
        assert_eq!(reg.build_shards("mab", 4, 1, 0, None).unwrap().len(), 4);
    }

    #[test]
    fn built_selectors_report_expected_names() {
        let reg = registry();
        let ctx = BuildContext::new(7, 0);
        for (policy, selector_name) in [
            ("llf", "llf"),
            ("least-users", "least-users"),
            ("rssi", "strongest-rssi"),
            ("random", "random"),
            ("flow-lb", "flow-lb"),
            ("mab", "mab"),
            ("workload", "workload"),
        ] {
            assert_eq!(reg.build(policy, &ctx).unwrap().name(), selector_name);
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = registry();
        register_baselines(&mut reg);
    }

    #[test]
    fn artifact_downcast_round_trips() {
        let model = String::from("artifact");
        let ctx = BuildContext {
            seed: 1,
            shard: 0,
            threads: 0,
            artifact: Some(&model),
        };
        assert_eq!(ctx.artifact::<String>().unwrap(), "artifact");
        assert!(ctx.artifact::<u64>().is_none());
    }
}
