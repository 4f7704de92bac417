//! High-level simulation runners: the [`Simulation`] builder for single
//! runs and [`run_design`] for producing whole training datasets from a
//! configuration design.

use wlc_data::{Dataset, Sample};
use wlc_math::rng::Seed;

use crate::config::{ArrivalProcess, DbModel, HardwareModel, ServerConfig, WorkloadSpec};
use crate::des::SimTime;
use crate::engine::{Engine, EngineConfig};
use crate::metrics::Measurement;
use crate::SimError;

/// Canonical dataset input-column names, in the paper's 4-tuple order
/// `(injection rate, default queue, mfg queue, web queue)`.
pub const INPUT_NAMES: [&str; 4] = [
    "injection_rate",
    "default_threads",
    "mfg_threads",
    "web_threads",
];

/// Canonical dataset output-column names, in the paper's indicator order.
pub const OUTPUT_NAMES: [&str; 5] = [
    "manufacturing_rt",
    "dealer_purchase_rt",
    "dealer_manage_rt",
    "dealer_browse_autos_rt",
    "throughput",
];

/// Builder for one simulation run.
///
/// Defaults: the paper-like [`HardwareModel`], [`DbModel`] and
/// [`WorkloadSpec`], 30 simulated seconds with a 5-second warmup, seed 0.
///
/// # Examples
///
/// ```
/// use wlc_sim::{ServerConfig, Simulation};
///
/// let config = ServerConfig::builder()
///     .injection_rate(250.0)
///     .default_threads(8)
///     .mfg_threads(8)
///     .web_threads(8)
///     .build()?;
/// let m = Simulation::new(config)
///     .seed(3)
///     .duration_secs(4.0)
///     .warmup_secs(1.0)
///     .run()?;
/// assert!(m.total_throughput() > 100.0);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    server: ServerConfig,
    hardware: HardwareModel,
    db: DbModel,
    workload: WorkloadSpec,
    arrivals: ArrivalProcess,
    duration_secs: f64,
    warmup_secs: f64,
    seed: Seed,
}

impl Simulation {
    /// Starts a simulation of the given server configuration with default
    /// hardware, database, workload and timing.
    pub fn new(server: ServerConfig) -> Self {
        Simulation {
            server,
            hardware: HardwareModel::default(),
            db: DbModel::default(),
            workload: WorkloadSpec::default(),
            arrivals: ArrivalProcess::default(),
            duration_secs: 30.0,
            warmup_secs: 5.0,
            seed: Seed::new(0),
        }
    }

    /// Sets the RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Seed::new(seed);
        self
    }

    /// Sets the total simulated duration in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.duration_secs = secs;
        self
    }

    /// Sets the warmup period (excluded from measurements).
    pub fn warmup_secs(mut self, secs: f64) -> Self {
        self.warmup_secs = secs;
        self
    }

    /// Overrides the hardware/contention model.
    pub fn hardware(mut self, hardware: HardwareModel) -> Self {
        self.hardware = hardware;
        self
    }

    /// Overrides the database model.
    pub fn db(mut self, db: DbModel) -> Self {
        self.db = db;
        self
    }

    /// Overrides the workload (transaction mix and demands).
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the arrival process (default: Poisson, as in the paper).
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] for invalid timing, hardware or DB
    ///   parameters.
    /// - [`SimError::NoCompletions`] if nothing completed at all.
    pub fn run(&self) -> Result<Measurement, SimError> {
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "duration_secs",
                reason: "must be positive and finite",
            });
        }
        if !(self.warmup_secs.is_finite() && self.warmup_secs >= 0.0) {
            return Err(SimError::InvalidConfig {
                name: "warmup_secs",
                reason: "must be non-negative and finite",
            });
        }
        let cfg = EngineConfig {
            server: self.server,
            hardware: self.hardware,
            db: self.db,
            workload: self.workload.clone(),
            arrivals: self.arrivals,
            duration: SimTime::from_secs(self.duration_secs),
            warmup: SimTime::from_secs(self.warmup_secs),
            seed: self.seed,
        };
        Engine::new(cfg)?.run()
    }
}

/// One-call simulation of a configuration with all defaults.
///
/// # Errors
///
/// As for [`Simulation::run`].
pub fn simulate(config: ServerConfig, seed: u64) -> Result<Measurement, SimError> {
    Simulation::new(config).seed(seed).run()
}

/// Simulates every configuration in `configs` and collects the results
/// into a [`Dataset`] with the canonical [`INPUT_NAMES`]/[`OUTPUT_NAMES`]
/// columns — the "set of training samples collected by running the
/// identical application under various configurations" of §2.2.
///
/// Each run gets an independent sub-seed derived from `base_seed`, so the
/// whole dataset is reproducible. Runs execute on a worker pool sized by
/// [`wlc_exec::default_jobs`]; because every run's seed depends only on
/// its *index* in `configs`, the dataset is bit-identical for any worker
/// count — use [`run_design_jobs`] to pin the pool size.
///
/// # Errors
///
/// - [`SimError::InvalidConfig`] / [`SimError::NoCompletions`] from any
///   individual run.
/// - [`SimError::Data`] if dataset assembly fails.
///
/// # Examples
///
/// ```
/// use wlc_sim::{run_design, ServerConfig};
///
/// let configs: Vec<_> = [150.0, 300.0]
///     .iter()
///     .map(|&rate| {
///         ServerConfig::builder()
///             .injection_rate(rate)
///             .default_threads(8)
///             .mfg_threads(8)
///             .web_threads(8)
///             .build()
///             .unwrap()
///     })
///     .collect();
/// let ds = run_design(&configs, 1, 4.0, 1.0)?;
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.input_width(), 4);
/// assert_eq!(ds.output_width(), 5);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn run_design(
    configs: &[ServerConfig],
    base_seed: u64,
    duration_secs: f64,
    warmup_secs: f64,
) -> Result<Dataset, SimError> {
    run_design_jobs(
        configs,
        base_seed,
        duration_secs,
        warmup_secs,
        wlc_exec::default_jobs(),
    )
}

/// [`run_design`] with an explicit worker count (`jobs <= 1` runs
/// sequentially). Output is bit-identical for every `jobs` value.
///
/// # Errors
///
/// As for [`run_design`].
pub fn run_design_jobs(
    configs: &[ServerConfig],
    base_seed: u64,
    duration_secs: f64,
    warmup_secs: f64,
    jobs: usize,
) -> Result<Dataset, SimError> {
    let root = Seed::new(base_seed);
    let rows = wlc_exec::try_map_indexed(jobs, configs.len(), |i| {
        Simulation::new(configs[i])
            .seed(root.derive(i as u64).value())
            .duration_secs(duration_secs)
            .warmup_secs(warmup_secs)
            .run()
            .map(|m| m.indicators())
    })?;
    design_dataset(configs, rows)
}

/// Like [`run_design`], but measures each configuration `replications`
/// times with independent seeds and records the *mean* indicator vector —
/// the paper's noise-reduction practice ("the averages of collected
/// counter values are used to reduce the effect of sampling error", §4).
///
/// Replicated runs are parallelized per configuration over `jobs`
/// workers (`jobs <= 1` runs sequentially; replications of one
/// configuration stay on one worker so the mean accumulates in a fixed
/// order); seeds depend only on `(index, replication)`, so output is
/// bit-identical for any worker count.
///
/// # Errors
///
/// - [`SimError::InvalidConfig`] if `replications == 0`.
/// - As for [`run_design`] otherwise.
///
/// # Examples
///
/// ```
/// use wlc_sim::{run_design_replicated_jobs, ServerConfig};
///
/// let config = ServerConfig::builder()
///     .injection_rate(200.0)
///     .default_threads(8)
///     .mfg_threads(8)
///     .web_threads(8)
///     .build()?;
/// let ds = run_design_replicated_jobs(&[config], 1, 3.0, 0.5, 3, 1)?;
/// assert_eq!(ds.len(), 1);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn run_design_replicated_jobs(
    configs: &[ServerConfig],
    base_seed: u64,
    duration_secs: f64,
    warmup_secs: f64,
    replications: u32,
    jobs: usize,
) -> Result<Dataset, SimError> {
    if replications == 0 {
        return Err(SimError::InvalidConfig {
            name: "replications",
            reason: "must be at least 1",
        });
    }
    let root = Seed::new(base_seed);
    let task = |i: usize| -> Result<Vec<f64>, SimError> {
        let mut mean = vec![0.0; OUTPUT_NAMES.len()];
        for rep in 0..replications {
            let seed = root.derive(i as u64).derive(rep as u64);
            let m = Simulation::new(configs[i])
                .seed(seed.value())
                .duration_secs(duration_secs)
                .warmup_secs(warmup_secs)
                .run()?;
            for (acc, v) in mean.iter_mut().zip(m.indicators()) {
                *acc += v;
            }
        }
        for acc in &mut mean {
            *acc /= f64::from(replications);
        }
        Ok(mean)
    };
    let rows = wlc_exec::try_map_indexed(jobs, configs.len(), task)?;
    design_dataset(configs, rows)
}

/// Pairs each configuration with its indicator row, in design order.
fn design_dataset(configs: &[ServerConfig], rows: Vec<Vec<f64>>) -> Result<Dataset, SimError> {
    let mut ds = Dataset::new(
        INPUT_NAMES.iter().map(|s| s.to_string()).collect(),
        OUTPUT_NAMES.iter().map(|s| s.to_string()).collect(),
    )?;
    for (config, y) in configs.iter().zip(rows) {
        ds.push(Sample::new(config.as_vector(), y))?;
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(rate: f64) -> ServerConfig {
        ServerConfig::builder()
            .injection_rate(rate)
            .default_threads(8)
            .mfg_threads(8)
            .web_threads(8)
            .build()
            .unwrap()
    }

    #[test]
    fn simulation_builder_runs() {
        let m = Simulation::new(server(150.0))
            .seed(1)
            .duration_secs(3.0)
            .warmup_secs(0.5)
            .run()
            .unwrap();
        assert!(m.throughput() > 0.0);
        assert!((m.window_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_timing_rejected() {
        assert!(Simulation::new(server(100.0))
            .duration_secs(0.0)
            .run()
            .is_err());
        assert!(Simulation::new(server(100.0))
            .warmup_secs(-1.0)
            .run()
            .is_err());
        assert!(Simulation::new(server(100.0))
            .duration_secs(1.0)
            .warmup_secs(2.0)
            .run()
            .is_err());
    }

    #[test]
    fn simulate_shorthand_matches_builder() {
        // Same seed, same defaults: identical measurement.
        let a = simulate(server(120.0), 9).unwrap();
        let b = Simulation::new(server(120.0)).seed(9).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_design_produces_canonical_dataset() {
        let configs = vec![server(100.0), server(200.0), server(300.0)];
        let ds = run_design(&configs, 5, 3.0, 0.5).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.input_names()[0], "injection_rate");
        assert_eq!(ds.output_names()[4], "throughput");
        // Inputs recorded exactly as configured.
        assert_eq!(ds.samples()[1].x(), &[200.0, 8.0, 8.0, 8.0]);
        // Higher injection -> higher throughput (monotone in this range).
        let tput = |i: usize| ds.samples()[i].y()[4];
        assert!(tput(0) < tput(1) && tput(1) < tput(2));
    }

    #[test]
    fn run_design_is_reproducible() {
        let configs = vec![server(150.0), server(250.0)];
        let a = run_design(&configs, 11, 3.0, 0.5).unwrap();
        let b = run_design(&configs, 11, 3.0, 0.5).unwrap();
        let c = run_design(&configs, 12, 3.0, 0.5).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn replicated_design_reduces_variance() {
        let configs = vec![server(200.0)];
        // Variance across base seeds with 1 vs 4 replications.
        let spread = |reps: u32| {
            let values: Vec<f64> = (0..6)
                .map(|seed| {
                    run_design_replicated_jobs(&configs, seed, 3.0, 0.5, reps, 1)
                        .unwrap()
                        .samples()[0]
                        .y()[0]
                })
                .collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
        };
        let single = spread(1);
        let averaged = spread(4);
        assert!(
            averaged < single,
            "averaging did not reduce variance: {single} vs {averaged}"
        );
    }

    #[test]
    fn replicated_design_validates() {
        let configs = vec![server(100.0)];
        assert!(run_design_replicated_jobs(&configs, 1, 3.0, 0.5, 0, 1).is_err());
        let ds = run_design_replicated_jobs(&configs, 1, 3.0, 0.5, 2, 1).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.samples()[0].x(), &[100.0, 8.0, 8.0, 8.0]);
    }

    #[test]
    fn run_design_uses_distinct_seeds_per_config() {
        // Two identical configs must not produce byte-identical
        // measurements (they get different sub-seeds).
        let configs = vec![server(150.0), server(150.0)];
        let ds = run_design(&configs, 3, 3.0, 0.5).unwrap();
        assert_ne!(ds.samples()[0].y(), ds.samples()[1].y());
    }
}
