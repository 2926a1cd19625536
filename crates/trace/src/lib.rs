//! WLAN trace model for the S³ reproduction.
//!
//! The paper mines a three-month association log from SJTU (12,374 users,
//! 334 APs, 22 buildings). That trace is proprietary, so this crate supplies
//! both halves of the substitution documented in `DESIGN.md`:
//!
//! * the **record model** ([`SessionRecord`], [`SessionDemand`],
//!   [`FlowRecord`]) mirroring the fields the paper logs — hashed user id,
//!   connect/disconnect timestamps, serving AP, served volume, and
//!   flow-level port data for application classification;
//! * a **synthetic campus generator** ([`generator`]) that reproduces the
//!   structural properties the paper's analysis depends on: diurnal load
//!   with morning/afternoon peaks, social groups that arrive and leave
//!   together on class-like schedules, four latent application-profile
//!   archetypes, and a population of independent "noise" users;
//! * the **mining primitives** ([`events`]) that extract encounter and
//!   co-leaving events from any session log — real or synthetic;
//! * a [`TraceStore`] with the time/user/AP indexed queries the analysis
//!   and the S³ learner need, and a hand-rolled [`csv`] codec so traces can
//!   be persisted and inspected without extra dependencies.
//!
//! # Example
//!
//! ```
//! use s3_trace::generator::{CampusConfig, CampusGenerator};
//!
//! let config = CampusConfig::tiny(); // 2 buildings, ~40 users, 3 days
//! let campus = CampusGenerator::new(config, 42).generate();
//! assert!(!campus.demands.is_empty());
//! assert!(campus.demands.windows(2).all(|w| w[0].arrive <= w[1].arrive));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod csv;
pub mod decision_log;
pub mod events;
pub mod generator;
pub mod ingest;
pub mod interner;
mod record;
mod store;
pub mod summary;

pub use record::{
    concentrated_volumes, zero_volumes, FlowRecord, SessionDemand, SessionRecord, TransportProtocol,
};
pub use store::{TraceStore, HORIZON_DAYS};
