#![warn(missing_docs)]

//! Stuck-at ATPG engine for the R2D3 reproduction.
//!
//! The paper (§IV) uses Synopsys TetraMAX to generate stuck-at test
//! patterns for the synthesized netlist and classifies every fault as
//! *detected*, *undetected* (within a 10 M-instruction budget) or
//! *undetectable* (Fig. 4(b)), plus a detection-latency histogram
//! (Fig. 4(c)). This crate reproduces that flow on the generated stage
//! netlists from [`r2d3_netlist`]:
//!
//! * [`fault`] — the stuck-at fault universe,
//! * [`collapse`] — function-exact structural equivalence classes; the
//!   campaign simulates one representative per class and expands
//!   verdicts back byte-identically,
//! * [`observe`] — stage-boundary vs core-boundary observation models,
//!   including structural-observability analysis (reverse reachability
//!   from the observed outputs),
//! * [`campaign`] — the random-pattern fault-simulation campaign with
//!   64-way bit-parallel evaluation, fault dropping, and per-fault
//!   detection-latency recording,
//! * [`report`] — per-unit aggregation into the paper's Fig. 4(b)/4(c)
//!   categories.
//!
//! # Example
//!
//! ```
//! use r2d3_netlist::{NetlistBuilder};
//! use r2d3_atpg::{campaign::{run_campaign, CampaignConfig}, fault::all_faults};
//!
//! let mut b = NetlistBuilder::new();
//! let i = b.inputs(4);
//! let x = b.xor_tree(&i);
//! b.output(x);
//! let nl = b.finish();
//!
//! let outcome = run_campaign(&nl, &all_faults(&nl), &CampaignConfig::default());
//! // Every fault in a parity tree is detectable by random patterns.
//! assert_eq!(outcome.detected().count(), outcome.results().len());
//! ```

pub mod campaign;
pub mod collapse;
pub mod fault;
pub mod flow;
pub mod observe;
pub mod podem;
pub mod report;

pub use campaign::{
    run_campaign, run_campaign_reference, CampaignConfig, CampaignOutcome, FaultStatus,
};
pub use collapse::{collapse_active, FaultClasses};
pub use fault::{all_faults, collapsed_faults, Fault};
pub use flow::{run_full_flow, FlowConfig};
pub use observe::{
    core_level_campaign, core_level_campaign_rewritten, structurally_observable, CoreCampaignError,
};
pub use podem::{podem, PodemResult};
pub use report::{unit_report, LatencyBucket, UnitReport};
