//! The 8-year lifetime co-simulation (paper §V-C, Figs. 5 and 6).
//!
//! Couples, on a monthly timestep, the pieces the paper's divide-and-
//! conquer methodology chains: the policy's duty assignment → the power
//! map → the HotSpot-style grid's steady state → NBTI ΔVth
//! accumulation → stochastic permanent-fault arrival → pipeline
//! re-formation (repair) → throughput. Each monthly state also yields a
//! forward Monte-Carlo MTTF estimate (Fig. 5(b)) from the instantaneous
//! per-stage hazard rates.
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
use crate::repair::{
    core_level_failure_time, core_level_formable, stage_level_failure_time, stage_level_formable,
};
use crate::snapshot::{self, SnapshotError};
use crate::substrate::ReliabilitySubstrate;
use crate::EngineError;
use r2d3_aging::mttf::{mttf_of_draws, ExpDraws, MttfConfig};
use r2d3_aging::nbti::{NbtiModel, NbtiParams, NbtiState};
use r2d3_aging::{kelvin, BOLTZMANN_EV, SECONDS_PER_MONTH};
use r2d3_isa::Unit;
use r2d3_netlist::json::{self, hex_u64, FieldError, Value};
use r2d3_physical::{DesignVariant, PhysicalModel};
use r2d3_pipeline_sim::StageId;
use r2d3_thermal::{Floorplan, GridConfig, PowerMap, SteadyResponse, ThermalGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::path::Path;

/// Which system-failure criterion the forward-MTTF Monte Carlo uses.
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
    /// Forward-MTTF Monte-Carlo trials per recorded month.
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
    /// Forward MTTF estimate in months (Fig. 5(b)).
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
#[derive(Debug)]
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

/// Portable mid-flight state of a lifetime run: the month-granular
/// cursor (replica × month), the accumulated average over completed
/// replicas, and the live replica's full state — RNG stream, fault map,
/// per-stage wear. Serialized with `f64`s as bit patterns, so save →
/// load → continue is byte-identical to never having stopped (the
/// [`snapshot`] determinism contract).
///
/// Produced by [`LifetimeSim::run_durable`]'s observer callback and
/// persisted/recovered with [`save`](LifetimeRunState::save) /
/// [`load`](LifetimeRunState::load).
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeRunState {
    /// Digest of the originating [`LifetimeConfig`]; resuming under a
    /// different configuration is a [`SnapshotError::ConfigMismatch`].
    config_digest: u64,
    /// Replica currently in flight (replicas `0..replica` are folded
    /// into `acc`).
    replica: usize,
    /// Months the in-flight replica has completed.
    month: usize,
    /// Replica-average accumulated over completed replicas.
    acc: LifetimeSeries,
    /// Replica-0 hottest-layer map (empty until replica 0 completes).
    map: Vec<f64>,
    rng: [u64; 4],
    alive: Vec<bool>,
    wear: Vec<f64>,
    series: LifetimeSeries,
    hot_map_month0: Vec<f64>,
}

impl LifetimeRunState {
    /// Snapshot-container kind tag for lifetime runs.
    pub const KIND: &'static str = "lifetime";

    /// Replica currently in flight (0-based).
    #[must_use]
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Months the in-flight replica has completed.
    #[must_use]
    pub fn month(&self) -> usize {
        self.month
    }

    /// Total months simulated across completed and in-flight replicas,
    /// given the run's months-per-replica.
    #[must_use]
    pub fn months_done(&self, months_per_replica: usize) -> usize {
        self.replica * months_per_replica + self.month
    }

    fn capture(st: &DurableCursor, rs: &ReplicaState, digest: u64) -> Self {
        LifetimeRunState {
            config_digest: digest,
            replica: rs.replica,
            month: rs.month,
            acc: st.acc.clone(),
            map: st.map.clone(),
            rng: rs.rng.state(),
            alive: rs.alive.clone(),
            wear: rs.wear.iter().map(NbtiState::vth_shift).collect(),
            series: rs.series.clone(),
            hot_map_month0: rs.hot_map_month0.clone(),
        }
    }

    fn rebuild_replica(&self) -> ReplicaState {
        ReplicaState {
            replica: self.replica,
            month: self.month,
            rng: StdRng::from_state(self.rng),
            alive: self.alive.clone(),
            wear: self.wear.iter().map(|&v| NbtiState::from_vth_shift(v)).collect(),
            series: self.series.clone(),
            hot_map_month0: self.hot_map_month0.clone(),
        }
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
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"config_digest\": {},", hex_u64(self.config_digest));
        let _ = writeln!(out, "  \"replica\": {},", self.replica);
        let _ = writeln!(out, "  \"month\": {},", self.month);
        let _ = writeln!(out, "  \"acc\": {},", series_to_json(&self.acc));
        let _ = writeln!(out, "  \"map\": {},", snapshot::f64_slice_to_json(&self.map));
        let _ = writeln!(
            out,
            "  \"rng\": [{}, {}, {}, {}],",
            hex_u64(self.rng[0]),
            hex_u64(self.rng[1]),
            hex_u64(self.rng[2]),
            hex_u64(self.rng[3])
        );
        out.push_str("  \"alive\": [");
        for (i, a) in self.alive.iter().enumerate() {
            let _ = write!(out, "{}{a}", if i == 0 { "" } else { ", " });
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"wear\": {},", snapshot::f64_slice_to_json(&self.wear));
        let _ = writeln!(out, "  \"series\": {},", series_to_json(&self.series));
        let _ = writeln!(
            out,
            "  \"hot_map_month0\": {}",
            snapshot::f64_slice_to_json(&self.hot_map_month0)
        );
        out.push_str("}\n");
        out
    }

    fn from_body(body: &str) -> Result<Self, SnapshotError> {
        let v = json::parse(body)?;
        Ok(LifetimeRunState {
            config_digest: v.hex("config_digest")?,
            replica: v.int("replica")?,
            month: v.int("month")?,
            acc: series_from_json(v.field("acc")?)?,
            map: floats(&v, "map")?,
            rng: v
                .hexes("rng")?
                .try_into()
                .map_err(|_| FieldError::invalid("rng", "must hold 4 words"))?,
            alive: v.bools("alive")?,
            wear: floats(&v, "wear")?,
            series: series_from_json(v.field("series")?)?,
            hot_map_month0: floats(&v, "hot_map_month0")?,
        })
    }
}

/// Accumulator half of a durable run (completed replicas).
struct DurableCursor {
    acc: LifetimeSeries,
    map: Vec<f64>,
}

/// Digest identifying a [`LifetimeConfig`] (FNV-1a over its canonical
/// `Debug` rendering). Every field but `threads` participates: results
/// are thread-count-invariant, so a snapshot resumes on any host.
fn config_digest(cfg: &LifetimeConfig) -> u64 {
    let canonical = LifetimeConfig { threads: 1, ..cfg.clone() };
    snapshot::fnv1a64(format!("{canonical:?}").as_bytes())
}

fn series_to_json(s: &LifetimeSeries) -> String {
    format!(
        "{{\"months\": {}, \"mean_vth\": {}, \"max_vth\": {}, \"mttf_months\": {}, \
         \"norm_ipc\": {}, \"active_pipelines\": {}, \"hottest_layer_temp\": {}}}",
        snapshot::f64_slice_to_json(&s.months),
        snapshot::f64_slice_to_json(&s.mean_vth),
        snapshot::f64_slice_to_json(&s.max_vth),
        snapshot::f64_slice_to_json(&s.mttf_months),
        snapshot::f64_slice_to_json(&s.norm_ipc),
        snapshot::f64_slice_to_json(&s.active_pipelines),
        snapshot::f64_slice_to_json(&s.hottest_layer_temp)
    )
}

/// Reads an array written by [`snapshot::f64_slice_to_json`].
fn floats(v: &Value, key: &str) -> Result<Vec<f64>, FieldError> {
    Ok(v.hexes(key)?.into_iter().map(f64::from_bits).collect())
}

fn series_from_json(v: &Value) -> Result<LifetimeSeries, SnapshotError> {
    let series = LifetimeSeries {
        months: floats(v, "months")?,
        mean_vth: floats(v, "mean_vth")?,
        max_vth: floats(v, "max_vth")?,
        mttf_months: floats(v, "mttf_months")?,
        norm_ipc: floats(v, "norm_ipc")?,
        active_pipelines: floats(v, "active_pipelines")?,
        hottest_layer_temp: floats(v, "hottest_layer_temp")?,
    };
    let n = series.months.len();
    if [
        series.mean_vth.len(),
        series.max_vth.len(),
        series.mttf_months.len(),
        series.norm_ipc.len(),
        series.active_pipelines.len(),
        series.hottest_layer_temp.len(),
    ]
    .iter()
    .any(|&l| l != n)
    {
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
    /// Each replica draws its faults from its own deterministic seed, the
    /// forward-MTTF draws depend only on the seed and the month, and the
    /// per-replica series are accumulated in replica order, so the
    /// averaged outcome is bit-identical for any thread count.
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

    /// [`run`](LifetimeSim::run) on `workers` threads, each stepping one
    /// contiguous chunk of replicas.
    fn run_on(&self, workers: usize) -> Result<LifetimeOutcome, EngineError> {
        let cfg = &self.config;
        let response = self.thermal_response()?;

        let workers = workers.max(1).min(cfg.replicas.max(1));
        let mut replicas: Vec<ReplicaState> =
            (0..cfg.replicas).map(|replica| ReplicaState::fresh(cfg, replica)).collect();
        if workers <= 1 {
            self.step_chunk(&mut replicas, &response);
        } else {
            std::thread::scope(|scope| {
                for chunk in replicas.chunks_mut(cfg.replicas.div_ceil(workers)) {
                    let response = &response;
                    scope.spawn(move || self.step_chunk(chunk, response));
                }
            });
        }

        let mut acc = LifetimeSeries::default();
        let mut map = Vec::new();
        for rs in replicas {
            accumulate(&mut acc, &rs.series, cfg.replicas as f64);
            if rs.replica == 0 {
                map = rs.hot_map_month0;
            }
        }

        Ok(LifetimeOutcome {
            policy: cfg.policy,
            series: acc,
            initial_hot_layer_map: map,
            map_nx: cfg.grid.nx,
            map_ny: cfg.grid.ny,
        })
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

    /// Steps every replica of `chunk` through all months, month by month.
    /// The replicas of a month read one stream of forward-MTTF draws, so
    /// each draw and its logarithm are computed once per chunk, not once
    /// per replica.
    fn step_chunk(&self, chunk: &mut [ReplicaState], response: &SteadyResponse) {
        for month in 0..self.config.months {
            let mut draws = ExpDraws::new(self.mttf_config(month).seed);
            for rs in chunk.iter_mut() {
                self.step_month(rs, response, &mut draws);
            }
        }
    }

    /// Runs the sweep serially and durably: after every simulated month
    /// the observer receives the complete portable [`LifetimeRunState`]
    /// and may persist it ([`LifetimeRunState::save`]) and/or stop the
    /// run ([`ControlFlow::Break`]). Passing a previously captured state
    /// resumes mid-flight; the monthly step is the same code as
    /// [`run`](LifetimeSim::run), so a killed-and-resumed run produces a
    /// byte-identical outcome to an uninterrupted one.
    ///
    /// Returns `Ok(None)` when the observer stopped the run early,
    /// `Ok(Some(outcome))` on completion.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] (as [`EngineError::Snapshot`])
    /// when `resume` was captured under a different configuration;
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
        let digest = config_digest(cfg);
        let nstages = cfg.layers * Unit::COUNT;
        let response = self.thermal_response()?;

        let (mut cursor, mut live) = match resume {
            Some(st) => {
                if st.config_digest != digest {
                    return Err(SnapshotError::ConfigMismatch(format!(
                        "snapshot was captured under a different lifetime configuration \
                         (digest {:#018x}, this run is {:#018x})",
                        st.config_digest, digest
                    ))
                    .into());
                }
                if st.replica >= cfg.replicas || st.month > cfg.months {
                    return Err(SnapshotError::ConfigMismatch(format!(
                        "snapshot cursor (replica {}, month {}) lies outside the run \
                         ({} replicas x {} months)",
                        st.replica, st.month, cfg.replicas, cfg.months
                    ))
                    .into());
                }
                if st.alive.len() != nstages || st.wear.len() != nstages {
                    return Err(SnapshotError::ConfigMismatch(format!(
                        "snapshot stage vectors do not match the run's {nstages} stages"
                    ))
                    .into());
                }
                let rs = st.rebuild_replica();
                (DurableCursor { acc: st.acc, map: st.map }, rs)
            }
            None => (
                DurableCursor { acc: LifetimeSeries::default(), map: Vec::new() },
                ReplicaState::fresh(cfg, 0),
            ),
        };

        loop {
            while live.month < cfg.months {
                let mut draws = ExpDraws::new(self.mttf_config(live.month).seed);
                self.step_month(&mut live, &response, &mut draws);
                let portable = LifetimeRunState::capture(&cursor, &live, digest);
                if observe(&portable)?.is_break() {
                    return Ok(None);
                }
            }
            accumulate(&mut cursor.acc, &live.series, cfg.replicas as f64);
            if live.replica == 0 {
                cursor.map = std::mem::take(&mut live.hot_map_month0);
            }
            let next = live.replica + 1;
            if next >= cfg.replicas {
                break;
            }
            live = ReplicaState::fresh(cfg, next);
        }

        Ok(Some(LifetimeOutcome {
            policy: cfg.policy,
            series: cursor.acc,
            initial_hot_layer_map: cursor.map,
            map_nx: cfg.grid.nx,
            map_ny: cfg.grid.ny,
        }))
    }

    /// Advances one replica by one month, reading forward-MTTF values from
    /// `draws`, the month's stream, and returns the month's block
    /// temperatures (°C, stage order). The whole monthly co-sim loop lives
    /// here so the parallel sweep ([`run`](LifetimeSim::run)) and the
    /// durable resumable runner ([`run_durable`](LifetimeSim::run_durable))
    /// execute the exact same code, which is what makes a resumed run
    /// byte-identical to an uninterrupted one.
    fn step_month(
        &self,
        rs: &mut ReplicaState,
        response: &SteadyResponse,
        draws: &mut ExpDraws,
    ) -> Vec<f64> {
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

        let mttf = self.forward_mttf(&rs.alive, &rates, formable, wanted, month, draws);
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

    /// Forward MTTF (months) from the current state via Monte Carlo,
    /// reading `draws`, the stream of `month`'s [`mttf_config`](Self::mttf_config).
    ///
    /// See [`MttfCriterion`] for the failure definition; `formable` is the
    /// policy's formable count over `alive`. The system fails when that
    /// count drops below the criterion's level (at most `wanted`), and
    /// each trial finds the time in closed form
    /// ([`stage_level_failure_time`], [`core_level_failure_time`]).
    fn forward_mttf(
        &self,
        alive: &[bool],
        rates: &[f64],
        formable: usize,
        wanted: usize,
        month: usize,
        draws: &mut ExpDraws,
    ) -> f64 {
        let cfg = &self.config;
        let level = match cfg.mttf_criterion {
            MttfCriterion::TotalLoss => 1,
            MttfCriterion::ServiceLevel => formable.min(wanted),
        };
        if level == 0 || formable < level {
            return 0.0;
        }
        let failure_time = match cfg.policy {
            PolicyKind::NoRecon => core_level_failure_time,
            _ => stage_level_failure_time,
        };
        mttf_of_draws(rates, &self.mttf_config(month), draws, |times| {
            failure_time(cfg.layers, alive, times, level)
        })
    }

    /// The forward-MTTF Monte Carlo of `month`. Its seed depends only on
    /// the run's seed and the month, so its draws are common to every
    /// replica of the run.
    fn mttf_config(&self, month: usize) -> MttfConfig {
        let cfg = &self.config;
        MttfConfig {
            trials: cfg.mttf_trials,
            seed: cfg.seed ^ (month as u64).wrapping_mul(0x517c_c1b7),
            survivor_horizon: 1e9,
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

fn accumulate(acc: &mut LifetimeSeries, one: &LifetimeSeries, replicas: f64) {
    let w = 1.0 / replicas;
    if acc.months.is_empty() {
        acc.months = one.months.clone();
        acc.mean_vth = vec![0.0; one.months.len()];
        acc.max_vth = vec![0.0; one.months.len()];
        acc.mttf_months = vec![0.0; one.months.len()];
        acc.norm_ipc = vec![0.0; one.months.len()];
        acc.active_pipelines = vec![0.0; one.months.len()];
        acc.hottest_layer_temp = vec![0.0; one.months.len()];
    }
    for i in 0..one.months.len() {
        acc.mean_vth[i] += one.mean_vth[i] * w;
        acc.max_vth[i] += one.max_vth[i] * w;
        acc.mttf_months[i] += one.mttf_months[i] * w;
        acc.norm_ipc[i] += one.norm_ipc[i] * w;
        acc.active_pipelines[i] += one.active_pipelines[i] * w;
        acc.hottest_layer_temp[i] += one.hottest_layer_temp[i] * w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(policy: PolicyKind) -> LifetimeConfig {
        LifetimeConfig {
            months: 24,
            replicas: 3,
            mttf_trials: 60,
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
    fn thread_count_is_bit_identical() {
        // Every worker count must produce the exact same averaged series:
        // deterministic per-replica seeds, forward-MTTF draws that depend
        // only on the month, and replica-order accumulation. Seven
        // replicas on 1, 2, 3, 4 and 7 workers run in chunks of 7, 4, 3,
        // 2 and 1, and all but the first and last leave a short final
        // chunk. `run_on` does not clamp to the host's cores, so every
        // chunk size runs on any host.
        let mut cfg = quick_config(PolicyKind::Static);
        cfg.replicas = 7;
        // Enough fault pressure that replica trajectories diverge.
        cfg.reliability.base_rate_per_month = 0.02;
        let sim = LifetimeSim::new(cfg);
        let serial = sim.run_on(1).unwrap();
        for workers in [2, 3, 4, 7] {
            let par = sim.run_on(workers).unwrap();
            assert_eq!(serial.series, par.series, "{workers} workers");
            assert_eq!(serial.initial_hot_layer_map, par.initial_hot_layer_map);
        }
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
        // Monte-Carlo noise of the forward-MTTF estimate.
        let mut cfg = quick_config(PolicyKind::Static);
        cfg.reliability.vth_accel_scale = 0.015;
        cfg.mttf_trials = 200;
        let out = LifetimeSim::new(cfg).run().unwrap();
        let head: f64 = out.series.mttf_months[..3].iter().sum::<f64>() / 3.0;
        let n = out.series.mttf_months.len();
        let tail: f64 = out.series.mttf_months[n - 3..].iter().sum::<f64>() / 3.0;
        assert!(tail < head * 0.95, "MTTF should decline: {head:.1} -> {tail:.1}");
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

    #[test]
    fn durable_run_matches_parallel_run() {
        let cfg = durable_config();
        let parallel = LifetimeSim::new(cfg.clone()).run().unwrap();
        let durable = LifetimeSim::new(cfg)
            .run_durable(None, |_| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap()
            .expect("observer never breaks");
        assert_eq!(parallel.series, durable.series, "durable runner must be bit-identical");
        assert_eq!(parallel.initial_hot_layer_map, durable.initial_hot_layer_map);
    }

    #[test]
    fn run_state_codec_round_trips() {
        let dir = std::env::temp_dir().join("r2d3-lifetime-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-codec", std::process::id()));

        let cfg = durable_config();
        let mut captured = None;
        LifetimeSim::new(cfg)
            .run_durable(None, |st| {
                // Month 7 of replica 1: RNG advanced, faults possible,
                // replica 0 already accumulated.
                if st.replica() == 1 && st.month() == 7 {
                    captured = Some(st.clone());
                    return Ok(std::ops::ControlFlow::Break(()));
                }
                Ok(std::ops::ControlFlow::Continue(()))
            })
            .unwrap();
        let original = captured.expect("run reached replica 1, month 7");
        original.save(&path).unwrap();
        let reloaded = LifetimeRunState::load(&path).unwrap();
        assert_eq!(original, reloaded, "save -> load must be lossless");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_format_3_lifetime_snapshot_is_refused() {
        // A v3 body's config digest matches this run, so if it loaded, the
        // run would resume SOR-solved months with exact ones.
        let path = std::env::temp_dir().join(format!("r2d3-lifetime-v3-{}", std::process::id()));
        let mut captured = None;
        LifetimeSim::new(durable_config())
            .run_durable(None, |st| {
                captured = Some(st.clone());
                Ok(std::ops::ControlFlow::Break(()))
            })
            .unwrap();
        captured.expect("one month ran").save(&path).unwrap();
        let v3 = std::fs::read_to_string(&path).unwrap().replacen(
            &format!("{} {} ", snapshot::SNAPSHOT_MAGIC, snapshot::SNAPSHOT_VERSION),
            &format!("{} 3 ", snapshot::SNAPSHOT_MAGIC),
            1,
        );
        std::fs::write(&path, v3).unwrap();
        assert!(matches!(
            LifetimeRunState::load(&path),
            Err(SnapshotError::UnsupportedMigration { found: 3, oldest: 4 })
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
                let mut draws = ExpDraws::new(sim.mttf_config(month).seed);
                let temps = sim.step_month(&mut rs, &response, &mut draws);
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

    #[test]
    fn stop_and_resume_is_byte_identical() {
        let cfg = durable_config();
        let uninterrupted = LifetimeSim::new(cfg.clone())
            .run_durable(None, |_| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap()
            .unwrap();

        // Stop after 13 months total (mid-replica-1), then resume.
        let mut steps = 0;
        let mut captured = None;
        LifetimeSim::new(cfg.clone())
            .run_durable(None, |st| {
                steps += 1;
                if steps == 13 {
                    captured = Some(st.clone());
                    return Ok(std::ops::ControlFlow::Break(()));
                }
                Ok(std::ops::ControlFlow::Continue(()))
            })
            .unwrap();
        let resumed = LifetimeSim::new(cfg)
            .run_durable(captured, |_| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap()
            .unwrap();
        assert_eq!(uninterrupted.series, resumed.series, "resume must be bit-identical");
        assert_eq!(uninterrupted.initial_hot_layer_map, resumed.initial_hot_layer_map);
    }

    #[test]
    fn resume_under_different_config_is_typed_error() {
        let cfg = durable_config();
        let mut captured = None;
        LifetimeSim::new(cfg.clone())
            .run_durable(None, |st| {
                captured = Some(st.clone());
                Ok(std::ops::ControlFlow::Break(()))
            })
            .unwrap();

        let mut other = cfg;
        other.seed ^= 1;
        match LifetimeSim::new(other).run_durable(captured, |_| unreachable!()) {
            Err(EngineError::Snapshot(SnapshotError::ConfigMismatch(msg))) => {
                assert!(msg.contains("different lifetime configuration"), "msg: {msg}");
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }

    #[test]
    fn resume_under_a_different_thread_count_is_byte_identical() {
        // `threads` defaults to the host's parallelism, so a snapshot
        // written on one host must resume on a host with more cores.
        let mut cfg = durable_config();
        cfg.threads = 1;
        let uninterrupted = LifetimeSim::new(cfg.clone())
            .run_durable(None, |_| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap()
            .unwrap();
        let mut captured = None;
        LifetimeSim::new(cfg.clone())
            .run_durable(None, |st| {
                if st.replica() == 1 && st.month() == 4 {
                    captured = Some(st.clone());
                    return Ok(std::ops::ControlFlow::Break(()));
                }
                Ok(std::ops::ControlFlow::Continue(()))
            })
            .unwrap();

        let wider = LifetimeConfig { threads: 4, ..cfg };
        let resumed = LifetimeSim::new(wider)
            .run_durable(captured, |_| Ok(std::ops::ControlFlow::Continue(())))
            .unwrap()
            .unwrap();
        assert_eq!(uninterrupted.series, resumed.series, "resume must be bit-identical");
        assert_eq!(uninterrupted.initial_hot_layer_map, resumed.initial_hot_layer_map);
    }
}
