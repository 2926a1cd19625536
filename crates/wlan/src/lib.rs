//! Discrete-event enterprise WLAN simulator.
//!
//! The paper evaluates AP-selection policies by trace-driven simulation:
//! a demand stream (who shows up where, when, with how much traffic) is
//! replayed against a WLAN whose controller assigns each arrival to an AP
//! according to the policy under study. This crate is that testbed:
//!
//! * [`Topology`] — buildings, controllers, APs with capacities and
//!   positions (built straight from a
//!   [`s3_trace::generator::CampusConfig`]);
//! * [`radio`] — a log-distance path-loss RSSI model, giving the
//!   "strongest signal" default policy something physical to rank;
//! * [`ApSelector`] — the policy interface, with the paper's baselines:
//!   [`selector::LeastLoadedFirst`] (LLF, the state of the art the paper
//!   compares against), [`selector::LeastUsers`],
//!   [`selector::StrongestRssi`] and [`selector::RandomSelector`] — plus
//!   the contender strategies from related work in [`strategies`]
//!   (flow-level balancing, ε-greedy MAB, workload-class-aware). The
//!   table from a `--policy` name to one of them, S³ included, is
//!   `s3_core::Policy`;
//! * [`SimEngine`] — the event-driven replay core: one loop over arrival
//!   cycles (departures, rebalance ticks, load-report epochs, arrival
//!   batches) at any controller-domain shard count, pluggable
//!   [`engine::DemandSource`]s (in-memory
//!   slice or a streaming reader for traces larger than RAM) and
//!   [`engine::RecordSink`]s, with policies reading live AP state through
//!   borrowed zero-copy [`selector::ApView`]s;
//! * [`metrics`] — balance-index time series and summaries computed from
//!   the logged sessions.
//!
//! # Example
//!
//! ```
//! use s3_trace::generator::{CampusConfig, CampusGenerator};
//! use s3_wlan::{SimConfig, SimEngine, Topology, selector::LeastLoadedFirst};
//!
//! let campus = CampusGenerator::new(CampusConfig::tiny(), 1).generate();
//! let topology = Topology::from_campus(&campus.config);
//! let mut llf = LeastLoadedFirst::new();
//! let result = SimEngine::new(topology, SimConfig::default())
//!     .run(&campus.demands, &mut llf);
//! assert_eq!(result.records.len(), campus.demands.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mac;
pub mod metrics;
pub mod radio;
pub mod selector;
pub mod strategies;
mod topology;

pub use engine::{
    CollectSink, DemandSource, EngineError, RebalanceConfig, RecordSink, RunTotals, SimConfig,
    SimEngine, SimResult, SliceSource, StreamSource,
};
pub use selector::{ApCandidate, ApSelector, ApView, DecisionMeta, SelectionContext};
pub use topology::{ApInfo, Topology};
