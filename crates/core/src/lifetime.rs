//! The 8-year lifetime co-simulation (paper §V-C, Figs. 5 and 6).
//!
//! Couples, on a monthly timestep, the pieces the paper's divide-and-
//! conquer methodology chains: the policy's duty assignment → the power
//! map → the HotSpot-style grid's steady state → NBTI ΔVth
//! accumulation → stochastic permanent-fault arrival → pipeline
//! re-formation (repair) → throughput. Each monthly state also yields an
//! exact forward MTTF (Fig. 5(b)) from the instantaneous per-stage hazard
//! rates.
//!
//! The grid is linear with constant conductances, so a run solves it
//! once: [`SteadyResponse`] maps the month's block powers to exact
//! block temperatures, and no replica carries thermal state.
//!
//! The cycle-level simulator is *not* stepped inside this loop (8 years
//! ≈ 2.5 × 10¹⁷ cycles); instead, per-workload IPC and occupancy come
//! from short cycle-level measurements (see
//! [`crate::report::measure_kernel_profile`]), exactly the two-timescale
//! split the paper uses between gem5 runs and the reliability evaluation.

use crate::activity::{pro_layer_weights, weighted_fill};
use crate::policy::PolicyKind;
use crate::pool::run_in_order;
use crate::repair::{core_level_formable, stage_level_formable};
use crate::snapshot::{self, SnapshotError};
use crate::substrate::ReliabilitySubstrate;
use crate::EngineError;
use r2d3_aging::mttf::mttf_exact;
use r2d3_aging::nbti::{NbtiModel, NbtiParams, NbtiState};
use r2d3_aging::{kelvin, BOLTZMANN_EV, SECONDS_PER_MONTH};
use r2d3_isa::Unit;
use r2d3_netlist::json::{self, hex_u64, FieldError, Value};
use r2d3_physical::{DesignVariant, PhysicalModel};
use r2d3_pipeline_sim::StageId;
use r2d3_thermal::{Floorplan, GridConfig, PowerMap, SteadyResponse, ThermalGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::convert::Infallible;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::Path;

/// Forward MTTF credited to a stack that never fails (every unit column,
/// or the set of intact cores, keeps the criterion's level of stages or
/// cores at hazard rate 0).
const SURVIVOR_HORIZON_MONTHS: f64 = 1e9;

/// Which system-failure criterion the forward MTTF uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MttfCriterion {
    /// System fails when no complete logical pipeline can be formed
    /// (total loss). Produces the paper's declining Fig. 5(b) shape.
    TotalLoss,
    /// System fails at the next *service-degrading* fault: when
    /// deliverable capacity `min(formable, wanted)` drops below its
    /// current value (ablation variant).
    ServiceLevel,
}

/// Hard-fault arrival model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityParams {
    /// Baseline per-stage hard-fault rate (per month) at the reference
    /// temperature with a fresh device.
    pub base_rate_per_month: f64,
    /// Arrhenius activation energy (eV) of the hard-fault mechanisms.
    pub fault_ea_ev: f64,
    /// Reference temperature (°C) for the baseline rate.
    pub ref_temp_c: f64,
    /// ΔVth acceleration: rate multiplies by `exp(ΔVth / scale)`.
    pub vth_accel_scale: f64,
    /// Extra duty leftovers carry from online testing (the paper accounts
    /// the "additional NBTI-based wearout of using leftovers for
    /// detection" — §III-C).
    pub detection_duty: f64,
    /// Also include the JEP122 mechanisms (EM, TDDB, HCI) in the
    /// per-stage hazard, beyond the NBTI-driven term. Off by default:
    /// the paper optimizes for NBTI and the calibration targets its
    /// numbers; the ablation bench flips this on.
    pub jep122: bool,
}

impl Default for ReliabilityParams {
    fn default() -> Self {
        ReliabilityParams {
            base_rate_per_month: 0.0045,
            fault_ea_ev: 0.35,
            ref_temp_c: 90.0,
            vth_accel_scale: 0.03,
            detection_duty: 0.05,
            jep122: false,
        }
    }
}

/// Configuration of one lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeConfig {
    /// Policy under evaluation.
    pub policy: PolicyKind,
    /// Months simulated (the paper evaluates 8 years = 96 months).
    pub months: usize,
    /// Tiers in the stack.
    pub layers: usize,
    /// Logical pipelines at full health.
    pub pipelines: usize,
    /// Fraction of the pipelines the workload wants busy
    /// ([`r2d3_isa::kernels::KernelKind::core_demand_fraction`]).
    pub demand: f64,
    /// Relative switching-activity weight of the workload.
    pub activity_weight: f64,
    /// Monte-Carlo replicas of the whole trajectory (fault arrival varies).
    pub replicas: usize,
    /// Worker threads for the replica loop (1 = serial). Replicas use
    /// deterministic per-replica seeds and are averaged in replica order,
    /// so the result is bit-identical for any thread count.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fault-arrival model.
    pub reliability: ReliabilityParams,
    /// NBTI model parameters.
    pub nbti: NbtiParams,
    /// Monte-Carlo trials of perfbench's `aging.mttf_ms` probe, which
    /// times [`r2d3_aging::mttf_monte_carlo`] with them. The lifetime loop
    /// does not read it: its forward MTTF is exact ([`mttf_exact`]). A
    /// benchmark change removes the field.
    pub mttf_trials: usize,
    /// Thermal grid configuration. A lifetime run reads only the grid's
    /// geometry and materials: its steady states come from an exact
    /// [`SteadyResponse`], so `sor_omega`, `tolerance` and `max_sweeps`
    /// do not change its output.
    pub grid: GridConfig,
    /// System-failure criterion for the forward-MTTF estimate.
    pub mttf_criterion: MttfCriterion,
}

impl LifetimeConfig {
    /// Default 8-year configuration for a policy and workload demand.
    #[must_use]
    pub fn new(policy: PolicyKind, demand: f64, activity_weight: f64) -> Self {
        LifetimeConfig {
            policy,
            months: 96,
            layers: 8,
            pipelines: 8,
            demand,
            activity_weight,
            replicas: 12,
            threads: default_threads(),
            seed: 0x52D3,
            reliability: ReliabilityParams::default(),
            nbti: NbtiParams::default(),
            mttf_trials: 300,
            grid: GridConfig::default(),
            mttf_criterion: MttfCriterion::TotalLoss,
        }
    }
}

/// Short-timescale execution profile measured on a live substrate — the
/// cycle-level leg of the paper's two-timescale split, feeding the
/// month-level lifetime co-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubstrateProfile {
    /// Operations retired per cycle per pipeline (instructions on the
    /// behavioral substrate, pattern lanes on the gate-level one).
    pub ipc: f64,
    /// Fraction of pipelines that made forward progress.
    pub demand: f64,
    /// Mean busy fraction across all mapped stages — the workload's
    /// switching-activity weight.
    pub activity_weight: f64,
}

/// Measures a [`SubstrateProfile`] by running `cycles` of execution on
/// any [`ReliabilitySubstrate`] — behavioral or gate-level — so the same
/// lifetime study can be parameterized from either backend.
///
/// Activity statistics are reset before the measurement window; the
/// substrate's program state advances by `cycles`.
///
/// # Errors
///
/// Propagates substrate errors; rejects `cycles == 0`.
pub fn profile_substrate<S: ReliabilitySubstrate>(
    sys: &mut S,
    cycles: u64,
) -> Result<SubstrateProfile, EngineError> {
    if cycles == 0 {
        return Err(EngineError::InvalidConfig("profile window must be positive".into()));
    }
    let pipes = sys.pipeline_count();
    let before: Vec<u64> = (0..pipes).map(|p| sys.retired(p)).collect();
    sys.reset_stats();
    sys.run(cycles)?;

    let deltas: Vec<u64> = (0..pipes).map(|p| sys.retired(p).saturating_sub(before[p])).collect();
    let retired: u64 = deltas.iter().sum();
    let progressed = deltas.iter().filter(|&&d| d > 0).count();

    let stats = sys.stats();
    let busy: u64 = (0..sys.layers()).map(|l| stats.layer_busy(l)).sum();
    let stage_slots = (pipes * Unit::COUNT) as f64;
    Ok(SubstrateProfile {
        ipc: retired as f64 / (cycles as f64 * pipes.max(1) as f64),
        demand: progressed as f64 / pipes.max(1) as f64,
        activity_weight: (busy as f64 / (cycles as f64 * stage_slots.max(1.0))).min(1.0),
    })
}

impl LifetimeConfig {
    /// Builds a lifetime configuration from a measured substrate profile
    /// (see [`profile_substrate`]): the profile's demand and activity
    /// weight replace the offline per-kernel table values.
    #[must_use]
    pub fn from_profile(policy: PolicyKind, profile: &SubstrateProfile) -> Self {
        LifetimeConfig::new(policy, profile.demand, profile.activity_weight)
    }
}

/// Time series produced by the lifetime simulation (replica-averaged).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifetimeSeries {
    /// Month index of each sample.
    pub months: Vec<f64>,
    /// Mean ΔVth (V) over stages currently carrying duty (in-service
    /// wear; can dip when load shifts to fresher stages after a fault).
    pub mean_vth: Vec<f64>,
    /// Max ΔVth (V) over *all* stages, dead or alive — the system's
    /// accumulated degradation (Fig. 5(a) metric; monotone).
    pub max_vth: Vec<f64>,
    /// Forward MTTF in months (Fig. 5(b)).
    pub mttf_months: Vec<f64>,
    /// Throughput normalized to the fresh NoRecon system (Fig. 5(c)).
    pub norm_ipc: Vec<f64>,
    /// Active (formed and demanded) pipelines.
    pub active_pipelines: Vec<f64>,
    /// Average temperature of the hottest layer (°C, Fig. 6 headline).
    pub hottest_layer_temp: Vec<f64>,
}

/// Result of a lifetime run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeOutcome {
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// Replica-averaged series.
    pub series: LifetimeSeries,
    /// Month-0 temperature map of the hottest layer (Fig. 6), row-major
    /// `grid.ny × grid.nx` cells in °C.
    pub initial_hot_layer_map: Vec<f64>,
    /// Grid width of the map.
    pub map_nx: usize,
    /// Grid height of the map.
    pub map_ny: usize,
}

/// Worker-thread default for [`LifetimeConfig::threads`]: available
/// parallelism capped at 8 (replica counts are small; more threads idle).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// Live state of one replica mid-trajectory — everything
/// [`LifetimeSim::step_month`] reads and writes.
#[derive(Debug, Clone, PartialEq)]
struct ReplicaState {
    replica: usize,
    /// Months completed (the next month to simulate).
    month: usize,
    rng: StdRng,
    alive: Vec<bool>,
    wear: Vec<NbtiState>,
    series: LifetimeSeries,
    hot_map_month0: Vec<f64>,
}

impl ReplicaState {
    fn fresh(cfg: &LifetimeConfig, replica: usize) -> Self {
        let nstages = cfg.layers * Unit::COUNT;
        ReplicaState {
            replica,
            month: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ (replica as u64).wrapping_mul(0x9e37)),
            alive: vec![true; nstages],
            wear: vec![NbtiState::new(); nstages],
            series: LifetimeSeries::default(),
            hot_map_month0: Vec::new(),
        }
    }
}

/// Finished replicas folded in replica order: the running average and
/// replica 0's month-0 map. [`run`](LifetimeSim::run) and
/// [`run_durable`](LifetimeSim::run_durable) both fold through it, so
/// their outcomes are equal by construction.
#[derive(Debug, Clone, PartialEq, Default)]
struct ReplicaFold {
    /// Replica-average over the folded replicas (empty before the first).
    acc: LifetimeSeries,
    /// Replica-0 hottest-layer map (empty until replica 0 is folded).
    map: Vec<f64>,
}

impl ReplicaFold {
    fn absorb(&mut self, rs: ReplicaState, replicas: usize) {
        let w = 1.0 / replicas as f64;
        if self.acc.months.is_empty() {
            for (_, column) in self.acc.columns_mut() {
                *column = vec![0.0; rs.series.months.len()];
            }
            self.acc.months.clone_from(&rs.series.months);
        }
        // Every column but `months` is a replica average.
        for ((_, sum), (_, one)) in
            self.acc.columns_mut().into_iter().zip(rs.series.columns()).skip(1)
        {
            for (s, v) in sum.iter_mut().zip(one) {
                *s += v * w;
            }
        }
        if rs.replica == 0 {
            self.map = rs.hot_map_month0;
        }
    }

    fn outcome(self, cfg: &LifetimeConfig) -> LifetimeOutcome {
        LifetimeOutcome {
            policy: cfg.policy,
            series: self.acc,
            initial_hot_layer_map: self.map,
            map_nx: cfg.grid.nx,
            map_ny: cfg.grid.ny,
        }
    }
}

/// Portable mid-flight state of a lifetime run: the replica-order fold
/// of the finished replicas and the live replica's full state — cursor
/// (replica × month), RNG stream, fault map, per-stage wear.
/// [`LifetimeSim::run_durable`] steps it in place and lends it to its
/// observer after every month, which may persist it with
/// [`save`](LifetimeRunState::save). Serialized with `f64`s as bit
/// patterns, so save → [`load`](LifetimeRunState::load) → continue is
/// byte-identical to never having stopped (the [`snapshot`] determinism
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeRunState {
    /// Digest of the originating [`LifetimeConfig`]; resuming under a
    /// different configuration is a [`SnapshotError::ConfigMismatch`].
    config_digest: u64,
    /// Replicas `0..live.replica`, folded.
    fold: ReplicaFold,
    /// The replica in flight.
    live: ReplicaState,
}

impl LifetimeRunState {
    /// Snapshot-container kind tag for lifetime runs.
    pub const KIND: &'static str = "lifetime";

    /// Replica currently in flight (0-based).
    #[must_use]
    pub fn replica(&self) -> usize {
        self.live.replica
    }

    /// Months the in-flight replica has completed.
    #[must_use]
    pub fn month(&self) -> usize {
        self.live.month
    }

    /// Total months simulated across completed and in-flight replicas,
    /// given the run's months-per-replica.
    #[must_use]
    pub fn months_done(&self, months_per_replica: usize) -> usize {
        self.live.replica * months_per_replica + self.live.month
    }

    /// Refuses a state that `cfg`'s run cannot continue: another
    /// configuration is a [`SnapshotError::ConfigMismatch`]; a cursor
    /// outside the run, or stage vectors, series or month-0 maps that
    /// disagree with the cursor, a [`SnapshotError::Malformed`] body.
    fn check_resumable(&self, cfg: &LifetimeConfig) -> Result<(), SnapshotError> {
        let digest = config_digest(cfg);
        if self.config_digest != digest {
            return Err(SnapshotError::ConfigMismatch(format!(
                "snapshot was captured under a different lifetime configuration \
                 (digest {:#018x}, this run is {:#018x})",
                self.config_digest, digest
            )));
        }
        let nstages = cfg.layers * Unit::COUNT;
        let cells = cfg.grid.nx * cfg.grid.ny;
        let (live, acc) = (&self.live, &self.fold.acc);
        let malformed = if live.replica >= cfg.replicas || live.month > cfg.months {
            format!(
                "snapshot cursor (replica {}, month {}) lies outside the run \
                 ({} replicas x {} months)",
                live.replica, live.month, cfg.replicas, cfg.months
            )
        } else if live.alive.len() != nstages || live.wear.len() != nstages {
            format!("snapshot stage vectors do not match the run's {nstages} stages")
        } else if live.series.months.len() != live.month {
            format!(
                "snapshot series holds {} months, its cursor {}",
                live.series.months.len(),
                live.month
            )
        } else if acc.months.len() != if live.replica == 0 { 0 } else { cfg.months } {
            format!(
                "snapshot accumulator holds {} months at replica {} of a {}-month run",
                acc.months.len(),
                live.replica,
                cfg.months
            )
        } else if self.fold.map.len() != if live.replica == 0 { 0 } else { cells }
            || live.hot_map_month0.len() != if live.month == 0 { 0 } else { cells }
        {
            format!("snapshot month-0 maps do not match the run's {cells}-cell layers")
        } else {
            return Ok(());
        };
        Err(SnapshotError::Malformed(malformed))
    }

    /// Atomically persists the state at `path` (see [`snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, Self::KIND, self.to_body().as_bytes())
    }

    /// [`save`](LifetimeRunState::save) through a
    /// [`Vfs`](crate::chaos::Vfs) seam.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError::Io`].
    pub fn save_with(&self, vfs: &dyn crate::chaos::Vfs, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic_with(vfs, path, Self::KIND, self.to_body().as_bytes())
    }

    /// Loads and verifies a state previously written by
    /// [`save`](LifetimeRunState::save).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O, wrong magic/version/kind, truncation,
    /// digest mismatch, malformed body.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified(path, Self::KIND)?)
    }

    /// [`load`](LifetimeRunState::load) through a
    /// [`Vfs`](crate::chaos::Vfs) seam.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`].
    pub fn load_with(vfs: &dyn crate::chaos::Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::from_body(&snapshot::read_verified_with(vfs, path, Self::KIND)?)
    }

    fn to_body(&self) -> String {
        let live = &self.live;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"config_digest\": {},", hex_u64(self.config_digest));
        let _ = writeln!(out, "  \"replica\": {},", live.replica);
        let _ = writeln!(out, "  \"month\": {},", live.month);
        let _ = writeln!(out, "  \"acc\": {},", series_to_json(&self.fold.acc));
        let _ = writeln!(out, "  \"map\": {},", snapshot::f64_slice_to_json(&self.fold.map));
        let [a, b, c, d] = live.rng.state().map(hex_u64);
        let _ = writeln!(out, "  \"rng\": [{a}, {b}, {c}, {d}],");
        out.push_str("  \"alive\": [");
        for (i, a) in live.alive.iter().enumerate() {
            let _ = write!(out, "{}{a}", if i == 0 { "" } else { ", " });
        }
        out.push_str("],\n");
        let wear: Vec<f64> = live.wear.iter().map(NbtiState::vth_shift).collect();
        let _ = writeln!(out, "  \"wear\": {},", snapshot::f64_slice_to_json(&wear));
        let _ = writeln!(out, "  \"series\": {},", series_to_json(&live.series));
        let _ = writeln!(
            out,
            "  \"hot_map_month0\": {}",
            snapshot::f64_slice_to_json(&live.hot_map_month0)
        );
        out.push_str("}\n");
        out
    }

    fn from_body(body: &str) -> Result<Self, SnapshotError> {
        let v = json::parse(body)?;
        let rng: [u64; 4] = v
            .hexes("rng")?
            .try_into()
            .map_err(|_| FieldError::invalid("rng", "must hold 4 words"))?;
        Ok(LifetimeRunState {
            config_digest: v.hex("config_digest")?,
            fold: ReplicaFold { acc: series_from_json(v.field("acc")?)?, map: floats(&v, "map")? },
            live: ReplicaState {
                replica: v.int("replica")?,
                month: v.int("month")?,
                rng: StdRng::from_state(rng),
                alive: v.bools("alive")?,
                wear: floats(&v, "wear")?.into_iter().map(NbtiState::from_vth_shift).collect(),
                series: series_from_json(v.field("series")?)?,
                hot_map_month0: floats(&v, "hot_map_month0")?,
            },
        })
    }
}

/// Digest identifying a [`LifetimeConfig`] (FNV-1a over its canonical
/// `Debug` rendering). Every field but `threads` participates: results
/// are thread-count-invariant, so a snapshot resumes on any host.
fn config_digest(cfg: &LifetimeConfig) -> u64 {
    let canonical = LifetimeConfig { threads: 1, ..cfg.clone() };
    snapshot::fnv1a64(format!("{canonical:?}").as_bytes())
}

impl LifetimeSeries {
    /// Every series with its snapshot key, in snapshot order.
    fn columns(&self) -> [(&'static str, &Vec<f64>); 7] {
        [
            ("months", &self.months),
            ("mean_vth", &self.mean_vth),
            ("max_vth", &self.max_vth),
            ("mttf_months", &self.mttf_months),
            ("norm_ipc", &self.norm_ipc),
            ("active_pipelines", &self.active_pipelines),
            ("hottest_layer_temp", &self.hottest_layer_temp),
        ]
    }

    /// [`columns`](LifetimeSeries::columns), writable.
    fn columns_mut(&mut self) -> [(&'static str, &mut Vec<f64>); 7] {
        [
            ("months", &mut self.months),
            ("mean_vth", &mut self.mean_vth),
            ("max_vth", &mut self.max_vth),
            ("mttf_months", &mut self.mttf_months),
            ("norm_ipc", &mut self.norm_ipc),
            ("active_pipelines", &mut self.active_pipelines),
            ("hottest_layer_temp", &mut self.hottest_layer_temp),
        ]
    }
}

fn series_to_json(s: &LifetimeSeries) -> String {
    let mut out = String::from("{");
    for (i, (key, column)) in s.columns().into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{key}\": {}", snapshot::f64_slice_to_json(column));
    }
    out.push('}');
    out
}

/// Reads an array written by [`snapshot::f64_slice_to_json`].
fn floats(v: &Value, key: &str) -> Result<Vec<f64>, FieldError> {
    Ok(v.hexes(key)?.into_iter().map(f64::from_bits).collect())
}

fn series_from_json(v: &Value) -> Result<LifetimeSeries, SnapshotError> {
    let mut series = LifetimeSeries::default();
    for (key, column) in series.columns_mut() {
        *column = floats(v, key)?;
    }
    if series.columns().iter().any(|(_, column)| column.len() != series.months.len()) {
        return Err(SnapshotError::Malformed("series arrays have mismatched lengths".into()));
    }
    Ok(series)
}

/// The lifetime co-simulation driver.
#[derive(Debug)]
pub struct LifetimeSim {
    config: LifetimeConfig,
    physical: PhysicalModel,
}

impl LifetimeSim {
    /// Creates a simulation from a configuration (physical model defaults
    /// to the paper's Table III anchor).
    #[must_use]
    pub fn new(config: LifetimeConfig) -> Self {
        LifetimeSim { config, physical: PhysicalModel::table_iii() }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &LifetimeConfig {
        &self.config
    }

    /// Runs all replicas and returns the averaged outcome.
    ///
    /// Replicas run in parallel over [`LifetimeConfig::threads`] workers.
    /// Each replica draws its faults from its own deterministic seed and
    /// shares nothing with the others, and finished replicas are folded
    /// in replica order, so the averaged outcome is bit-identical for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Thermal`] if the grid's conductance matrix
    /// is singular ([`SteadyResponse::new`]).
    pub fn run(&self) -> Result<LifetimeOutcome, EngineError> {
        // Oversubscribing a CPU-bound replica loop only adds context
        // switches, so the worker count is clamped to the host's
        // parallelism (results are thread-count-invariant either way).
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.run_on(self.config.threads.min(host))
    }

    /// [`run`](LifetimeSim::run) on `workers` threads of the crate's
    /// ordered pool, one replica at a time per worker.
    fn run_on(&self, workers: usize) -> Result<LifetimeOutcome, EngineError> {
        let cfg = &self.config;
        let response = self.thermal_response()?;
        let replicas: Vec<usize> = (0..cfg.replicas).collect();
        let mut fold = ReplicaFold::default();
        let Ok(_) = run_in_order(
            workers,
            &(),
            &replicas,
            |(), &replica| {
                let mut rs = ReplicaState::fresh(cfg, replica);
                while rs.month < cfg.months {
                    self.step_month(&mut rs, &response);
                }
                rs
            },
            |rs| {
                fold.absorb(rs, cfg.replicas);
                Ok::<_, Infallible>(ControlFlow::Continue(()))
            },
        );
        Ok(fold.outcome(cfg))
    }

    /// The grid's exact steady-state response, built once per run and
    /// read by every replica.
    fn thermal_response(&self) -> Result<SteadyResponse, EngineError> {
        let cfg = &self.config;
        let grid = ThermalGrid::new(&Floorplan::opensparc_3d(cfg.layers), &cfg.grid);
        // Each tier lists its units in `Unit::ALL` order, so the grid's
        // block order is `StageId::flat_index` order.
        debug_assert_eq!(grid.unit_order(), Unit::ALL);
        Ok(SteadyResponse::new(&grid)?)
    }

    /// Runs the replicas serially and durably, stepping one
    /// [`LifetimeRunState`] in place: after every simulated month the
    /// observer borrows it and may persist it
    /// ([`LifetimeRunState::save`]) and/or stop the run
    /// ([`ControlFlow::Break`]). Passing a previously saved state resumes
    /// mid-flight. The monthly step and the replica fold are the same code
    /// as [`run`](LifetimeSim::run)'s, so a killed-and-resumed run
    /// produces a byte-identical outcome to an uninterrupted one.
    ///
    /// Returns `Ok(None)` when the observer stopped the run early,
    /// `Ok(Some(outcome))` on completion.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] (as [`EngineError::Snapshot`])
    /// when `resume` was captured under a different configuration, and
    /// [`SnapshotError::Malformed`] when it disagrees with its own cursor;
    /// otherwise the same errors as [`run`](LifetimeSim::run), plus
    /// whatever the observer raises.
    pub fn run_durable<F>(
        &self,
        resume: Option<LifetimeRunState>,
        mut observe: F,
    ) -> Result<Option<LifetimeOutcome>, EngineError>
    where
        F: FnMut(&LifetimeRunState) -> Result<ControlFlow<()>, EngineError>,
    {
        let cfg = &self.config;
        let mut st = match resume {
            Some(st) => {
                st.check_resumable(cfg)?;
                st
            }
            None => LifetimeRunState {
                config_digest: config_digest(cfg),
                fold: ReplicaFold::default(),
                live: ReplicaState::fresh(cfg, 0),
            },
        };
        let response = self.thermal_response()?;

        loop {
            while st.live.month < cfg.months {
                self.step_month(&mut st.live, &response);
                if observe(&st)?.is_break() {
                    return Ok(None);
                }
            }
            let next = st.live.replica + 1;
            let done = std::mem::replace(&mut st.live, ReplicaState::fresh(cfg, next));
            st.fold.absorb(done, cfg.replicas);
            if next >= cfg.replicas {
                return Ok(Some(st.fold.outcome(cfg)));
            }
        }
    }

    /// Advances one replica by one month and returns the month's block
    /// temperatures (°C, stage order). The whole monthly co-sim loop lives
    /// here so the parallel sweep ([`run`](LifetimeSim::run)) and the
    /// durable resumable runner ([`run_durable`](LifetimeSim::run_durable))
    /// execute the exact same code, which is what makes a resumed run
    /// byte-identical to an uninterrupted one.
    fn step_month(&self, rs: &mut ReplicaState, response: &SteadyResponse) -> Vec<f64> {
        let cfg = &self.config;
        let nstages = cfg.layers * Unit::COUNT;
        let nbti = NbtiModel::new(cfg.nbti);
        let rel = &cfg.reliability;
        let wanted = ((cfg.demand * cfg.pipelines as f64).round() as usize).max(1);
        let freq_factor = self.frequency_factor();
        let month = rs.month;

        // --- formation + duty assignment ---------------------------
        let usable = |s: StageId| rs.alive[s.flat_index()];
        let formable = match cfg.policy {
            PolicyKind::NoRecon => core_level_formable(cfg.layers, usable),
            _ => stage_level_formable(cfg.layers, usable),
        };
        let active = formable.min(wanted);
        let duty = self.assign_duty(&rs.alive, active);

        // --- power map + steady-state temperatures -----------------
        let temps = response.block_temps(&self.power_map(&duty, cfg.activity_weight));
        if month == 0 {
            // The Fig. 6 map: the hottest layer's cells, leaving out the
            // workload's activity weight.
            let field = response.field(&self.power_map(&duty, 1.0));
            let per = cfg.grid.nx * cfg.grid.ny;
            let hot = field.hottest_layer();
            rs.hot_map_month0 = field.cells()[hot * per..(hot + 1) * per].to_vec();
        }

        // --- aging ---------------------------------------------------
        for s in 0..nstages {
            if rs.alive[s] {
                nbti.advance(&mut rs.wear[s], duty[s], temps[s], SECONDS_PER_MONTH);
            }
        }

        // --- metrics -------------------------------------------------
        let used: Vec<usize> = (0..nstages).filter(|&s| duty[s] > 0.02).collect();
        let mean_vth = if used.is_empty() {
            0.0
        } else {
            used.iter().map(|&s| rs.wear[s].vth_shift()).sum::<f64>() / used.len() as f64
        };
        let max_vth = rs.wear.iter().map(NbtiState::vth_shift).fold(0.0f64, f64::max);

        let rates: Vec<f64> = (0..nstages)
            .map(|s| {
                if rs.alive[s] {
                    self.hazard_rate(rel, temps[s], duty[s], rs.wear[s].vth_shift())
                } else {
                    0.0
                }
            })
            .collect();

        let mttf = self.forward_mttf(&rs.alive, &rates, formable, wanted);
        let norm_ipc = active as f64 / wanted as f64 * freq_factor;
        let hottest =
            (0..cfg.layers).map(|l| layer_mean(&temps, l)).fold(f64::NEG_INFINITY, f64::max);

        rs.series.months.push(month as f64);
        rs.series.mean_vth.push(mean_vth);
        rs.series.max_vth.push(max_vth);
        rs.series.mttf_months.push(mttf);
        rs.series.norm_ipc.push(norm_ipc);
        rs.series.active_pipelines.push(active as f64);
        rs.series.hottest_layer_temp.push(hottest);

        // --- stochastic fault arrival for next month -----------------
        for (s, rate) in rates.iter().enumerate().take(nstages) {
            if rs.alive[s] {
                let p = 1.0 - (-rate).exp();
                if rs.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    rs.alive[s] = false;
                }
            }
        }
        rs.month += 1;
        temps
    }

    /// Per-stage duty assignment for the month, per policy.
    fn assign_duty(&self, alive: &[bool], active: usize) -> Vec<f64> {
        let cfg = &self.config;
        let nstages = cfg.layers * Unit::COUNT;
        let mut duty = vec![0.0f64; nstages];

        // The thermally-unaware baselines fill cores from the tier
        // *farthest* from the heat sink: the stack's I/O lands on the top
        // tier (the controller occupies the sink-side tier, §III-A), so a
        // naive allocator enumerates cores top-down. This reproduces the
        // paper's observed Static behaviour — its Fig. 6 map shows the
        // far-from-sink layer fully loaded and hot.
        match cfg.policy {
            PolicyKind::NoRecon => {
                // Top-down fully-healthy layers serve at full duty.
                let mut taken = 0;
                for layer in (0..cfg.layers).rev() {
                    if taken == active {
                        break;
                    }
                    if Unit::ALL.iter().all(|&u| alive[StageId::new(layer, u).flat_index()]) {
                        for u in Unit::ALL {
                            duty[StageId::new(layer, u).flat_index()] = 1.0;
                        }
                        taken += 1;
                    }
                }
            }
            PolicyKind::Static => {
                // Stage-level salvaging, but with the same top-down,
                // thermally-unaware preference as NoRecon.
                for u in Unit::ALL {
                    let mut healthy: Vec<usize> = (0..cfg.layers)
                        .filter(|&l| alive[StageId::new(l, u).flat_index()])
                        .collect();
                    healthy.reverse();
                    for &l in healthy.iter().take(active) {
                        duty[StageId::new(l, u).flat_index()] = 1.0;
                    }
                }
            }
            PolicyKind::Lite => {
                // Round-robin over the calibration window: every healthy
                // stage of a unit carries an equal share of the demand.
                for u in Unit::ALL {
                    let healthy: Vec<usize> = (0..cfg.layers)
                        .filter(|&l| alive[StageId::new(l, u).flat_index()])
                        .collect();
                    if healthy.is_empty() {
                        continue;
                    }
                    let share = (active as f64 / healthy.len() as f64).min(1.0);
                    for l in healthy {
                        duty[StageId::new(l, u).flat_index()] = share;
                    }
                }
            }
            PolicyKind::Pro => {
                // Eq. 1: duty follows the temperature-predicted activity
                // indices, clamped and water-filled to preserve the total.
                // The paper: "Activity factors can either be determined
                // offline based on the steady state temperature of cores
                // for typical workloads (implicitly based on the location
                // of cores), or at runtime based on the temperature and
                // wear-out history. In this work, we use the steady state
                // temperature method." The offline layer weights are that
                // method.
                let w = pro_layer_weights(cfg.layers);
                for u in Unit::ALL {
                    let healthy: Vec<usize> = (0..cfg.layers)
                        .filter(|&l| alive[StageId::new(l, u).flat_index()])
                        .collect();
                    if healthy.is_empty() {
                        continue;
                    }
                    let alphas: Vec<f64> = healthy.iter().map(|&l| w[l]).collect();
                    let shares = weighted_fill(&alphas, active as f64);
                    for (&l, &share) in healthy.iter().zip(&shares) {
                        duty[StageId::new(l, u).flat_index()] = share;
                    }
                }
            }
        }

        // Detection wearout: leftovers of repair-capable policies carry
        // the online-test duty.
        if cfg.policy.rotates() {
            for s in 0..nstages {
                if alive[s] && duty[s] == 0.0 {
                    duty[s] = cfg.reliability.detection_duty;
                }
            }
        }
        duty
    }

    /// Per-block power of a duty vector, with switching activity scaled
    /// by `activity_weight`.
    fn power_map(&self, duty: &[f64], activity_weight: f64) -> PowerMap {
        let cfg = &self.config;
        let unit_w = self.physical.unit_powers_w();
        let uncore_w = self.physical.uncore_power_w();
        let power_factor = self.power_factor();
        let fp = Floorplan::opensparc_3d(cfg.layers);
        let mut p = PowerMap::new(&fp);
        for s in StageId::all(cfg.layers) {
            let d = duty[s.flat_index()];
            let watts = unit_w[s.unit.index()] * d * activity_weight * power_factor;
            p.add_block(s.layer, s.unit, watts);
        }
        // Uncore power scales with the layer's mean duty.
        for layer in 0..cfg.layers {
            let mean: f64 =
                Unit::ALL.iter().map(|&u| duty[StageId::new(layer, u).flat_index()]).sum::<f64>()
                    / Unit::COUNT as f64;
            // Spread uncore power over the layer's five blocks pro rata
            // by area (add_block accumulates onto unit blocks).
            for u in Unit::ALL {
                let frac = r2d3_thermal::grid::UNIT_AREA_MM2[u.index()]
                    / r2d3_thermal::grid::UNIT_AREA_MM2.iter().sum::<f64>();
                p.add_block(layer, u, uncore_w * mean * activity_weight * frac);
            }
        }
        p
    }

    /// Instantaneous per-stage hazard rate (per month).
    fn hazard_rate(&self, rel: &ReliabilityParams, temp_c: f64, duty: f64, vth: f64) -> f64 {
        let arrhenius = (rel.fault_ea_ev / BOLTZMANN_EV
            * (1.0 / kelvin(rel.ref_temp_c) - 1.0 / kelvin(temp_c)))
        .exp();
        let mut rate = rel.base_rate_per_month * arrhenius * (vth / rel.vth_accel_scale).exp();
        if rel.jep122 {
            // Competing risks: add the JEP122 mechanisms at this stage's
            // operating point. Current density and switching activity
            // scale with duty; the oxide field is nominal.
            let op = r2d3_aging::jep122::OperatingPoint {
                temp_c,
                j_rel: duty.max(0.05),
                activity: (duty * self.config.activity_weight).max(0.05),
                ..Default::default()
            };
            let composite = r2d3_aging::jep122::CompositeModel::default();
            let hours_per_month = SECONDS_PER_MONTH / 3600.0;
            rate += composite.rate_per_hour(&op) * hours_per_month;
        }
        rate
    }

    /// Exact forward MTTF (months) from the current state: the mean time
    /// until the stages `alive` now, failing at `rates`, leave fewer than
    /// the criterion's level of pipelines ([`MttfCriterion`]; the level is
    /// at most `wanted`). `formable` is the policy's formable count over
    /// `alive`.
    ///
    /// Stage-level policies form a pipeline from any live stage of each
    /// unit, so their stack is the five unit columns in series, each alive
    /// while `level` of its live stages are. NoRecon keeps whole cores: one
    /// group of the intact cores, each failing at the sum of its five
    /// stage rates. A stack that forms nothing has failed already (0); one
    /// that never fails is credited with [`SURVIVOR_HORIZON_MONTHS`].
    fn forward_mttf(&self, alive: &[bool], rates: &[f64], formable: usize, wanted: usize) -> f64 {
        let cfg = &self.config;
        if formable == 0 {
            return 0.0;
        }
        let level = match cfg.mttf_criterion {
            MttfCriterion::TotalLoss => 1,
            MttfCriterion::ServiceLevel => formable.min(wanted),
        };
        let stage = |l: usize, u: Unit| StageId::new(l, u).flat_index();
        match cfg.policy {
            PolicyKind::NoRecon => {
                let core_rate = |l: usize| Unit::ALL.iter().map(|&u| rates[stage(l, u)]).sum();
                let intact = (0..cfg.layers)
                    .filter(|&l| Unit::ALL.iter().all(|&u| alive[stage(l, u)]))
                    .map(core_rate);
                mttf_exact([intact], level, SURVIVOR_HORIZON_MONTHS)
            }
            _ => {
                let column = |u: Unit| {
                    (0..cfg.layers)
                        .map(move |l| stage(l, u))
                        .filter(|&s| alive[s])
                        .map(|s| rates[s])
                };
                mttf_exact(Unit::ALL.map(column), level, SURVIVOR_HORIZON_MONTHS)
            }
        }
    }

    fn frequency_factor(&self) -> f64 {
        let variant = if self.config.policy.has_fabric() {
            DesignVariant::R2d3
        } else {
            DesignVariant::NoRecon
        };
        self.physical.design(variant).frequency_ghz / self.physical.nominal_ghz
    }

    fn power_factor(&self) -> f64 {
        if self.config.policy.has_fabric() {
            1.0 + self.physical.power_overhead
        } else {
            1.0
        }
    }
}

fn layer_mean(temps: &[f64], layer: usize) -> f64 {
    let base = layer * Unit::COUNT;
    temps[base..base + Unit::COUNT].iter().sum::<f64>() / Unit::COUNT as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(policy: PolicyKind) -> LifetimeConfig {
        LifetimeConfig {
            months: 24,
            replicas: 3,
            grid: GridConfig { nx: 8, ny: 6, ..Default::default() },
            ..LifetimeConfig::new(policy, 0.75, 0.85)
        }
    }

    #[test]
    fn profile_measures_behavioral_substrate() {
        use r2d3_isa::kernels::gemv;
        use r2d3_pipeline_sim::{System3d, SystemConfig};
        let mut sys = System3d::new(&SystemConfig { pipelines: 4, ..Default::default() });
        for p in 0..4 {
            sys.load_program(p, gemv(16, 16, 3).program().clone()).unwrap();
        }
        let profile = profile_substrate(&mut sys, 20_000).unwrap();
        assert!(profile.ipc > 0.0, "no progress measured");
        assert!((profile.demand - 1.0).abs() < f64::EPSILON, "all 4 pipes were loaded");
        assert!(profile.activity_weight > 0.0 && profile.activity_weight <= 1.0);
        let config = LifetimeConfig::from_profile(PolicyKind::Pro, &profile);
        assert_eq!(config.demand, profile.demand);
        assert_eq!(config.activity_weight, profile.activity_weight);
    }

    #[test]
    fn profile_measures_netlist_substrate() {
        use crate::substrate::{NetlistSubstrate, NetlistSubstrateConfig};
        let mut sub = NetlistSubstrate::new(&NetlistSubstrateConfig {
            layers: 4,
            pipelines: 2,
            trace_capacity: 512,
            ..Default::default()
        });
        let profile = profile_substrate(&mut sub, 20_000).unwrap();
        assert!(profile.ipc > 0.0);
        assert!((profile.demand - 1.0).abs() < f64::EPSILON);
        assert!(profile.activity_weight > 0.0 && profile.activity_weight <= 1.0);
        assert!(profile_substrate(&mut sub, 0).is_err());
    }

    #[test]
    fn series_has_expected_length() {
        let out = LifetimeSim::new(quick_config(PolicyKind::Static)).run().unwrap();
        assert_eq!(out.series.months.len(), 24);
        assert_eq!(out.initial_hot_layer_map.len(), 8 * 6);
    }

    #[test]
    fn vth_grows_monotonically() {
        let out = LifetimeSim::new(quick_config(PolicyKind::NoRecon)).run().unwrap();
        for w in out.series.max_vth.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "max ΔVth decreased: {w:?}");
        }
        assert!(out.series.max_vth.last().unwrap() > &0.01);
    }

    #[test]
    fn pro_ages_slower_than_norecon() {
        // Disable fault noise for a clean aging comparison.
        let mut pro_cfg = quick_config(PolicyKind::Pro);
        pro_cfg.reliability.base_rate_per_month = 0.0;
        let mut base_cfg = quick_config(PolicyKind::NoRecon);
        base_cfg.reliability.base_rate_per_month = 0.0;
        let pro = LifetimeSim::new(pro_cfg).run().unwrap();
        let base = LifetimeSim::new(base_cfg).run().unwrap();
        let pro_final = *pro.series.max_vth.last().unwrap();
        let base_final = *base.series.max_vth.last().unwrap();
        assert!(
            pro_final < base_final,
            "Pro ΔVth {pro_final:.4} should be below NoRecon {base_final:.4}"
        );
    }

    #[test]
    fn repairing_policies_sustain_more_throughput() {
        let mut cfg_static = quick_config(PolicyKind::Static);
        let mut cfg_norecon = quick_config(PolicyKind::NoRecon);
        // Accelerate failures so the 24-month window shows attrition.
        cfg_static.reliability.base_rate_per_month = 0.02;
        cfg_norecon.reliability.base_rate_per_month = 0.02;
        let st = LifetimeSim::new(cfg_static).run().unwrap();
        let nr = LifetimeSim::new(cfg_norecon).run().unwrap();
        let st_final = *st.series.active_pipelines.last().unwrap();
        let nr_final = *nr.series.active_pipelines.last().unwrap();
        assert!(
            st_final >= nr_final,
            "stage-level repair ({st_final:.2}) must keep at least as many pipelines as core-level loss ({nr_final:.2})"
        );
    }

    #[test]
    fn jep122_mechanisms_lower_mttf() {
        let base = quick_config(PolicyKind::Pro);
        let mut multi = base.clone();
        multi.reliability.jep122 = true;
        let a = LifetimeSim::new(base).run().unwrap();
        let b = LifetimeSim::new(multi).run().unwrap();
        assert!(
            b.series.mttf_months[0] < a.series.mttf_months[0],
            "adding mechanisms must lower MTTF: {} vs {}",
            b.series.mttf_months[0],
            a.series.mttf_months[0]
        );
    }

    #[test]
    fn mttf_declines_with_age() {
        // Strong ΔVth acceleration so 24 months of wear dominates the
        // replicas' fault noise.
        let mut cfg = quick_config(PolicyKind::Static);
        cfg.reliability.vth_accel_scale = 0.015;
        let out = LifetimeSim::new(cfg).run().unwrap();
        let head: f64 = out.series.mttf_months[..3].iter().sum::<f64>() / 3.0;
        let n = out.series.mttf_months.len();
        let tail: f64 = out.series.mttf_months[n - 3..].iter().sum::<f64>() / 3.0;
        assert!(tail < head * 0.95, "MTTF should decline: {head:.1} -> {tail:.1}");
    }

    /// Forward MTTF against a 100,000-trial Monte Carlo walked against the
    /// formable count itself, over random live-stage masks, rates (one
    /// live stage in eight never fails) and levels, for both formation
    /// structures and both criteria. The estimate's standard error comes
    /// from the spread of 20 independent batches of 5,000 trials.
    #[test]
    fn forward_mttf_matches_a_large_monte_carlo() {
        use r2d3_aging::mttf::{mttf_monte_carlo, MttfConfig};
        const BATCHES: u64 = 20;
        let mut rng = StdRng::seed_from_u64(0x3177);
        let (mut finite, mut above_level_1) = (0, 0);
        for policy in [PolicyKind::Static, PolicyKind::NoRecon] {
            for criterion in [MttfCriterion::TotalLoss, MttfCriterion::ServiceLevel] {
                for _ in 0..3 {
                    let layers = rng.gen_range(2..=8);
                    let wanted = rng.gen_range(1..=layers);
                    let sim = LifetimeSim::new(LifetimeConfig {
                        layers,
                        mttf_criterion: criterion,
                        ..quick_config(policy)
                    });
                    let n = layers * Unit::COUNT;
                    let alive: Vec<bool> = (0..n).map(|_| rng.gen_range(0..8) != 0).collect();
                    let rates: Vec<f64> = (0..n)
                        .map(|s| match (alive[s], rng.gen_range(0..8)) {
                            (true, 0) | (false, _) => 0.0,
                            (true, _) => rng.gen_range(0.002..0.05),
                        })
                        .collect();
                    let count = |ok: &dyn Fn(StageId) -> bool| match policy {
                        PolicyKind::NoRecon => core_level_formable(layers, ok),
                        _ => stage_level_formable(layers, ok),
                    };
                    let formable = count(&|s| alive[s.flat_index()]);
                    if formable == 0 {
                        continue;
                    }
                    let level = match criterion {
                        MttfCriterion::TotalLoss => 1,
                        MttfCriterion::ServiceLevel => formable.min(wanted),
                    };
                    let exact = sim.forward_mttf(&alive, &rates, formable, wanted);
                    let batches: Vec<f64> = (0..BATCHES)
                        .map(|seed| {
                            let config = MttfConfig { trials: 5_000, seed, survivor_horizon: 1e9 };
                            let up = |mask: &[bool]| {
                                count(&|s| alive[s.flat_index()] && mask[s.flat_index()]) >= level
                            };
                            mttf_monte_carlo(&rates, up, &config)
                        })
                        .collect();
                    let mean = batches.iter().sum::<f64>() / BATCHES as f64;
                    if exact == 1e9 {
                        assert_eq!(mean, 1e9, "{policy:?} level {level}: every trial censored");
                        continue;
                    }
                    let var = batches.iter().map(|b| (b - mean).powi(2)).sum::<f64>()
                        / (BATCHES - 1) as f64;
                    let se = (var / BATCHES as f64).sqrt();
                    assert!(
                        (exact - mean).abs() <= 4.0 * se,
                        "{policy:?} {criterion:?} level {level}: exact {exact}, \
                         Monte Carlo {mean} ± {se}"
                    );
                    finite += 1;
                    above_level_1 += usize::from(level > 1);
                }
            }
        }
        assert!(finite >= 8 && above_level_1 >= 3, "{finite} finite, {above_level_1} above 1");
    }

    #[test]
    fn forward_mttf_is_zero_without_a_formable_pipeline_and_censored_without_wear() {
        for policy in [PolicyKind::Static, PolicyKind::NoRecon] {
            for criterion in [MttfCriterion::TotalLoss, MttfCriterion::ServiceLevel] {
                let sim = LifetimeSim::new(LifetimeConfig {
                    mttf_criterion: criterion,
                    ..quick_config(policy)
                });
                let n = 8 * Unit::COUNT;
                // Every LSU stage dead: nothing can be formed.
                let alive: Vec<bool> =
                    (0..n).map(|s| s % Unit::COUNT != Unit::Lsu.index()).collect();
                assert_eq!(sim.forward_mttf(&alive, &vec![0.01; n], 0, 6), 0.0);
                // Nothing wears: the stack never fails. One wearing layer
                // leaves seven stages of every column, and seven cores, at
                // rate 0: enough for level 1, too few for all eight, which
                // then fail with the layer's five stages in series.
                let alive = vec![true; n];
                let mut rates = vec![0.0; n];
                assert_eq!(sim.forward_mttf(&alive, &rates, 8, 6), 1e9, "{policy:?}");
                rates[..Unit::COUNT].fill(0.01);
                let one_layer = sim.forward_mttf(&alive, &rates, 8, 8);
                match criterion {
                    MttfCriterion::TotalLoss => assert_eq!(one_layer, 1e9, "{policy:?}"),
                    MttfCriterion::ServiceLevel => {
                        assert!((one_layer - 20.0).abs() < 1e-9, "{policy:?} level 8: {one_layer}");
                    }
                }
            }
        }
    }

    /// Small config with enough fault pressure that RNG state and fault
    /// maps matter for byte-identity.
    fn durable_config() -> LifetimeConfig {
        let mut cfg = quick_config(PolicyKind::Pro);
        cfg.months = 10;
        cfg.replicas = 2;
        cfg.reliability.base_rate_per_month = 0.02;
        cfg
    }

    /// The state a durable run of `cfg` lends its observer at month-step
    /// `step` (1-based).
    fn stopped_at(cfg: &LifetimeConfig, step: usize) -> LifetimeRunState {
        let mut steps = 0;
        let mut captured = None;
        LifetimeSim::new(cfg.clone())
            .run_durable(None, |st| {
                steps += 1;
                if steps < step {
                    return Ok(ControlFlow::Continue(()));
                }
                captured = Some(st.clone());
                Ok(ControlFlow::Break(()))
            })
            .unwrap();
        captured.expect("the run reached the step")
    }

    #[test]
    fn run_state_codec_round_trips() {
        let dir = std::env::temp_dir().join("r2d3-lifetime-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-codec", std::process::id()));

        // Month 7 of replica 1: RNG advanced, faults possible, replica 0
        // already folded in.
        let cfg = durable_config();
        let original = stopped_at(&cfg, cfg.months + 7);
        original.save(&path).unwrap();
        let reloaded = LifetimeRunState::load(&path).unwrap();
        assert_eq!(original, reloaded, "save -> load must be lossless");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_format_4_lifetime_snapshot_is_refused() {
        // A v4 body's config digest matches this run, so if it loaded, the
        // run would follow months of sampled forward MTTF with exact ones.
        let path = std::env::temp_dir().join(format!("r2d3-lifetime-v4-{}", std::process::id()));
        stopped_at(&durable_config(), 1).save(&path).unwrap();
        let v4 = std::fs::read_to_string(&path).unwrap().replacen(
            &format!("{} {} ", snapshot::SNAPSHOT_MAGIC, snapshot::SNAPSHOT_VERSION),
            &format!("{} 4 ", snapshot::SNAPSHOT_MAGIC),
            1,
        );
        std::fs::write(&path, v4).unwrap();
        assert!(matches!(
            LifetimeRunState::load(&path),
            Err(SnapshotError::UnsupportedMigration { found: 4, oldest: 5 })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn block_temperatures_match_a_converged_sor_solve_every_month() {
        // Pro under fault pressure: each fault moves duty between stages,
        // so the months cover many different power maps.
        let mut cfg = durable_config();
        cfg.months = 24;
        let sim = LifetimeSim::new(cfg.clone());
        let response = sim.thermal_response().unwrap();
        let converged = GridConfig { tolerance: 1e-11, max_sweeps: 1_000_000, ..cfg.grid };
        let grid = ThermalGrid::new(&Floorplan::opensparc_3d(cfg.layers), &converged);
        let wanted = ((cfg.demand * cfg.pipelines as f64).round() as usize).max(1);
        let mut faults = 0;
        for replica in 0..cfg.replicas {
            let mut rs = ReplicaState::fresh(&cfg, replica);
            for month in 0..cfg.months {
                let formable = stage_level_formable(cfg.layers, |s| rs.alive[s.flat_index()]);
                let duty = sim.assign_duty(&rs.alive, formable.min(wanted));
                let sor = grid.steady_state(&sim.power_map(&duty, cfg.activity_weight)).unwrap();
                let temps = sim.step_month(&mut rs, &response);
                for s in StageId::all(cfg.layers) {
                    let want = sor
                        .block_avg(r2d3_thermal::BlockId { layer: s.layer, unit: s.unit })
                        .unwrap();
                    let got = temps[s.flat_index()];
                    assert!(
                        (got - want).abs() < 1e-8,
                        "replica {replica} month {month} {s:?}: {got} vs {want}"
                    );
                }
            }
            faults += rs.alive.iter().filter(|&&alive| !alive).count();
        }
        assert!(faults > 0, "the run must take faults");
    }

    /// The lifetime determinism contract, stated once: `run` on any
    /// worker count, `run_durable` straight through, and `run_durable`
    /// stopped, saved, reloaded and resumed under another `threads` all
    /// give the serial outcome, and the bytes saved at a stop are the
    /// same whatever the worker count. Seven replicas run on the calling
    /// thread, then on 2, 3 and 7 workers that may finish them in any
    /// order; `run_on` does not clamp to the host's cores, so every count
    /// runs on any host. The stops are the first step, the boundary after
    /// replica 0 (finished but not yet folded in), an interior step and
    /// the last.
    #[test]
    fn every_schedule_sees_the_serial_outcome() {
        let cfg = LifetimeConfig { replicas: 7, ..durable_config() };
        let months = cfg.months;
        let stops = [
            (1, (0, 1)),
            (months, (0, months)),
            (3 * months + 4, (3, 4)),
            (7 * months, (6, months)),
        ];
        let workers = [1, 2, 3, 7];
        let serial = LifetimeSim::new(cfg.clone()).run_on(1).unwrap();
        let dir = std::env::temp_dir().join("r2d3-lifetime-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let mut first_bytes = Vec::new();
        for (k, &threads) in workers.iter().enumerate() {
            let sim = LifetimeSim::new(LifetimeConfig { threads, ..cfg.clone() });
            assert_eq!(sim.run_on(threads).unwrap(), serial, "run on {threads} workers");
            let straight = sim.run_durable(None, |_| Ok(ControlFlow::Continue(()))).unwrap();
            assert_eq!(straight, Some(serial.clone()), "durable run, threads {threads}");

            let other = workers[(k + 1) % workers.len()];
            let resumer = LifetimeSim::new(LifetimeConfig { threads: other, ..cfg.clone() });
            for (i, &(step, cursor)) in stops.iter().enumerate() {
                let st = stopped_at(sim.config(), step);
                assert_eq!((st.replica(), st.month()), cursor, "cursor at step {step}");
                let path = dir.join(format!("{}-schedule-{threads}-{step}", std::process::id()));
                st.save(&path).unwrap();
                let bytes = std::fs::read(&path).unwrap();
                let reloaded = LifetimeRunState::load(&path).unwrap();
                std::fs::remove_file(&path).unwrap();
                match first_bytes.get(i) {
                    None => first_bytes.push(bytes),
                    Some(first) => assert!(&bytes == first, "step {step}: bytes under {threads}"),
                }
                let resumed =
                    resumer.run_durable(Some(reloaded), |_| Ok(ControlFlow::Continue(()))).unwrap();
                assert_eq!(
                    resumed,
                    Some(serial.clone()),
                    "stopped at step {step} under threads {threads}, resumed under {other}"
                );
            }
        }
    }

    fn refusal(cfg: LifetimeConfig, st: LifetimeRunState) -> SnapshotError {
        match LifetimeSim::new(cfg).run_durable(Some(st), |_| unreachable!()) {
            Err(EngineError::Snapshot(e)) => e,
            other => panic!("expected a snapshot error, got {other:?}"),
        }
    }

    /// A body inconsistent with its own cursor is malformed, not foreign.
    fn assert_refused(cfg: LifetimeConfig, st: LifetimeRunState, why: &str) {
        match refusal(cfg, st) {
            SnapshotError::Malformed(msg) => assert!(msg.contains(why), "msg: {msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_snapshot_whose_series_outruns_its_cursor_is_refused() {
        // Month 5 of replica 1, with a sixth month in every series column.
        let cfg = durable_config();
        let mut st = stopped_at(&cfg, cfg.months + 5);
        for (_, column) in st.live.series.columns_mut() {
            column.push(0.0);
        }
        assert_refused(cfg, st, "series holds 6 months, its cursor 5");
    }

    #[test]
    fn a_snapshot_whose_accumulator_falls_short_is_refused() {
        // Replica 0 is folded in, but one month is missing from the fold.
        let cfg = durable_config();
        let mut st = stopped_at(&cfg, cfg.months + 5);
        for (_, column) in st.fold.acc.columns_mut() {
            column.pop();
        }
        assert_refused(cfg, st, "accumulator holds 9 months at replica 1 of a 10-month run");
    }

    #[test]
    fn a_snapshot_whose_month_0_map_is_cut_is_refused() {
        // Replica 0's Fig. 6 map, folded in, lost a cell.
        let cfg = durable_config();
        let mut st = stopped_at(&cfg, cfg.months + 5);
        st.fold.map.pop();
        assert_refused(cfg, st, "month-0 maps do not match the run's 48-cell layers");
    }

    #[test]
    fn resume_under_different_config_is_typed_error() {
        let cfg = durable_config();
        let st = stopped_at(&cfg, 1);
        let other = LifetimeConfig { seed: cfg.seed ^ 1, ..cfg };
        match refusal(other, st) {
            SnapshotError::ConfigMismatch(msg) => {
                assert!(msg.contains("different lifetime configuration"), "msg: {msg}");
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
