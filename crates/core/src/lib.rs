//! S³ — the Social-aware AP Selection Scheme (the paper's contribution).
//!
//! S³ learns, from historical association logs, *which users tend to leave
//! the network together*, and uses that knowledge at arrival time to spread
//! socially tight users across APs — so that when a group co-leaves, the
//! load drop is absorbed by many APs instead of cratering one. No session
//! is ever migrated; user experience is untouched.
//!
//! The pipeline (Sections III-D and IV of the paper):
//!
//! 1. **Event mining** — encounters and co-leavings per user pair
//!    ([`s3_trace::events`]), giving the conditional probability
//!    `P(L(u,v) | E(u,v))`;
//! 2. **Profiling** — per-user six-realm application profiles over a
//!    look-back window ([`profile`]), plus an EWMA bandwidth-demand
//!    estimate `w(u)`;
//! 3. **Typing** — k-means over profiles with `k` chosen by the gap
//!    statistic, and the empirical co-leave probability matrix
//!    `T(typeᵢ, typeⱼ)` (Table I);
//! 4. **Social relation index** — `δ(u,v) = P(L|E) + α·T(type_u, type_v)`
//!    ([`SocialModel::delta`]). The model is stored in the dense form
//!    selection reads: users interned to dense ids, `P(L|E)` as a sorted
//!    CSR adjacency, one-byte types and a flat `T`;
//! 5. **AP selection** — the online [`S3Selector`]: for each arrival (or
//!    batch of simultaneous arrivals), place users so the added social
//!    affinity per AP is minimal, subject to `Σ w(u) ≤ W(i)`, breaking
//!    near-ties in favour of the assignment with the best projected
//!    balance index (Algorithm 1, implemented in [`batch`]).
//!
//! [`Policy`] is the table from a `--policy` name to a selector: S³ over a
//! shared trained model, the paper's baselines and the contenders from
//! related work.
//!
//! # Example
//!
//! ```
//! use s3_core::{S3Config, S3Selector, SocialModel};
//! use s3_trace::generator::{CampusConfig, CampusGenerator};
//! use s3_trace::TraceStore;
//! use s3_wlan::{selector::LeastLoadedFirst, SimConfig, SimEngine, Topology};
//!
//! // Generate a campus, train on the first two days, select on the third.
//! let campus = CampusGenerator::new(CampusConfig::tiny(), 7).generate();
//! let topology = Topology::from_campus(&campus.config);
//! let engine = SimEngine::new(topology.clone(), SimConfig::default());
//!
//! let bootstrap = engine.run(&campus.demands, &mut LeastLoadedFirst::new());
//! let history = TraceStore::new(bootstrap.records);
//!
//! let config = S3Config::default();
//! let model = SocialModel::learn(&history.slice_days(0, 1), &config, 1);
//! let mut s3 = S3Selector::new(model, config);
//! let result = engine.run(&campus.demands, &mut s3);
//! assert_eq!(result.records.len(), campus.demands.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod config;
mod learning;
pub mod online;
mod policy;
pub mod profile;
mod selector;

pub use config::S3Config;
pub use learning::{SocialModel, TypeMatrix, NO_USER};
pub use online::IncrementalLearner;
pub use policy::{Policy, PolicyError};
pub use selector::S3Selector;
