//! Adversarial fault-injection campaign harness.
//!
//! The engine's unit tests each probe one failure mode with a hand-built
//! scenario. This module industrializes that: it generates a seeded,
//! deterministic population of adversarial [`FaultScenario`]s —
//! permanents, transients, duty-cycled intermittents, multi-stage bursts,
//! corrupted checker inputs, stuck replay registers, rotting checkpoint
//! slots, mid-window upsets and concurrent-fault diagnoses — runs every
//! one end-to-end on a fresh substrate (behavioral and gate-level), and
//! classifies what the engine did about it. The universe covers *fabric*
//! faults too — stuck/bridged/crosstalking TSV links, crossbar
//! mux-select upsets and multi-link SEU bursts — where the hardware at
//! fault is the vertical interconnect, not any stage:
//!
//! * [`Outcome::Benign`] — the fault never manifested;
//! * [`Outcome::DetectedRepaired`] — handled, final state clean;
//! * [`Outcome::Rerouted`] — a mux-select upset caught by the route
//!   scrub and rewritten;
//! * [`Outcome::LinkQuarantined`] — symptoms attributed to a vertical
//!   link; the link became a routing constraint and the (healthy) stage
//!   behind it stayed in service;
//! * [`Outcome::Misdiagnosed`] — healthy hardware was condemned;
//! * [`Outcome::MisroutedUndetected`] — a crossbar upset outlived every
//!   detection mechanism;
//! * [`Outcome::SilentCorruption`] — corrupted state survived unnoticed
//!   (including a poisoned checkpoint being restored);
//! * [`Outcome::EngineFailure`] — the engine itself errored.
//!
//! Failure scenarios are [shrunk](shrink_scenario) to minimal
//! reproductions, and the whole campaign renders to a byte-deterministic
//! JSON [report](render_report): same seed, same report, every time.
//!
//! ```
//! use r2d3_core::campaign::{run_campaign, CampaignConfig, SubstrateKind};
//!
//! let config = CampaignConfig {
//!     scenarios_per_substrate: 9,
//!     substrates: vec![SubstrateKind::Behavioral],
//!     ..Default::default()
//! };
//! let report = run_campaign(&config);
//! assert_eq!(report.total_scenarios(), 9);
//! assert_eq!(report.failures(), 0, "engine got a scenario wrong");
//! ```

mod adversary;
pub mod chaos;
mod durable;
mod report;
mod runner;
mod scenario;
mod shrink;

pub use adversary::Adversary;
pub use chaos::{run_chaos, ChaosConfig, ChaosReport, CHAOS_TARGETS};
pub use durable::{
    merge_shards, run_campaign, run_campaign_durable, run_campaign_traced, shard_scenarios,
    CampaignState, ShardReport, ShardSpec,
};
pub use report::render_report;
pub use runner::{
    campaign_engine_config, CampaignConfig, CampaignReport, CampaignTrace, EventCounts, Outcome,
    ScenarioResult, SubstrateKind, SubstrateReport, SweepMetrics,
};
pub use scenario::{
    generate_scenarios, generate_scenarios_with, truth_defective, truth_links, FaultKind,
    FaultScenario, Injection, KindId, ScenarioSpace, INJECTABLE_UNITS, KIND_NAMES,
};
pub use shrink::shrink_scenario;
