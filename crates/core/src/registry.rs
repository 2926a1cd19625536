//! The complete default [`StrategyRegistry`]: the wlan crate's baselines
//! and contenders plus the S³ strategy itself.
//!
//! `s3-wlan` cannot register S³ — it does not know the model type — so the
//! layering is: [`s3_wlan::strategy::register_baselines`] (llf,
//! least-users, rssi, random), then `s3` here, then
//! [`s3_wlan::strategy::register_contenders`] (flow-lb, mab, workload).
//! Consumers (the CLI, the ablation grid) call [`strategy_registry`] and
//! never hard-code a policy list.
//!
//! The S³ factory is `needs_training`: callers train a [`SocialModel`]
//! once (an LLF replay of the training prefix) and pass it as an
//! `Arc<SocialModel>` through
//! [`s3_wlan::strategy::BuildContext::artifact`]; each shard's factory
//! call clones only the `Arc`, so every shard's [`S3Selector`] queries the
//! same tables.

use std::sync::{Arc, OnceLock};

use s3_wlan::strategy::{
    register_baselines, register_contenders, StrategyCaps, StrategyError, StrategyRegistry,
};

use crate::{S3Config, S3Selector, SocialModel};

/// Builds a fresh copy of the default registry (every strategy the
/// workspace ships). Prefer [`strategy_registry`] unless the registry is
/// being extended.
pub fn default_registry() -> StrategyRegistry {
    let mut reg = StrategyRegistry::new();
    register_baselines(&mut reg);
    reg.register(
        "s3",
        "social-aware selection from a trained co-leave model (the paper)",
        StrategyCaps {
            needs_training: true,
            shardable: true,
        },
        Box::new(|ctx| {
            let model = ctx
                .artifact::<Arc<SocialModel>>()
                .ok_or(StrategyError::MissingArtifact("s3"))?;
            let config = S3Config {
                threads: ctx.threads,
                ..S3Config::default()
            };
            Ok(Box::new(S3Selector::new(Arc::clone(model), config)))
        }),
    );
    register_contenders(&mut reg);
    reg
}

/// The process-wide default registry.
pub fn strategy_registry() -> &'static StrategyRegistry {
    static REGISTRY: OnceLock<StrategyRegistry> = OnceLock::new();
    REGISTRY.get_or_init(default_registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3_wlan::strategy::BuildContext;

    #[test]
    fn default_registry_lists_all_eight_strategies() {
        let names: Vec<&str> = strategy_registry().names().collect();
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
    fn s3_needs_a_model_artifact() {
        let reg = strategy_registry();
        let caps = reg.get("s3").unwrap().caps();
        assert!(caps.needs_training && caps.shardable);
        let err = reg
            .build("s3", &BuildContext::new(1, 0))
            .err()
            .expect("no artifact must fail");
        assert_eq!(err, StrategyError::MissingArtifact("s3"));
    }

    #[test]
    fn s3_builds_from_a_trained_model() {
        use s3_trace::TraceStore;
        let model = SocialModel::learn(&TraceStore::new(Vec::new()), &S3Config::default(), 1);
        let shared = Arc::new(model.clone());
        let ctx = BuildContext {
            seed: 1,
            shard: 0,
            threads: 1,
            artifact: Some(&shared),
        };
        let selector = strategy_registry().build("s3", &ctx).unwrap();
        assert_eq!(selector.name(), "s3");
        // A bare model is not an S³ artifact: the factory takes the
        // shared `Arc` only, so no shard copies the model.
        let err = strategy_registry()
            .build(
                "s3",
                &BuildContext {
                    artifact: Some(&model),
                    ..ctx
                },
            )
            .err()
            .expect("a bare SocialModel artifact must be refused");
        assert_eq!(err, StrategyError::MissingArtifact("s3"));
    }

    #[test]
    fn s3_shards_share_one_model() {
        use s3_trace::TraceStore;
        let model = SocialModel::learn(&TraceStore::new(Vec::new()), &S3Config::default(), 1);
        let shared = Arc::new(model);
        let selectors = strategy_registry()
            .build_shards("s3", 4, 1, 1, Some(&shared))
            .unwrap();
        assert_eq!(selectors.len(), 4);
        // Four shard selectors, one model: the artifact's `Arc` plus one
        // clone per selector.
        assert_eq!(Arc::strong_count(&shared), 5);
        drop(selectors);
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
