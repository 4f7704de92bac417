use wlc_math::distributions::Distribution;

use crate::transaction::{DomainQueue, StageDemands, TransactionClass, TransactionKind};
use crate::SimError;

/// The paper's four input parameters: `(injection rate, default queue,
/// mfg queue, web queue)`.
///
/// # Examples
///
/// ```
/// use wlc_sim::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .injection_rate(560.0)
///     .default_threads(10)
///     .mfg_threads(16)
///     .web_threads(18)
///     .build()?;
/// assert_eq!(config.as_vector(), vec![560.0, 10.0, 16.0, 18.0]);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    injection_rate: f64,
    default_threads: u32,
    mfg_threads: u32,
    web_threads: u32,
}

impl ServerConfig {
    /// Starts a builder.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::new()
    }

    /// Requests injected per second (open-loop Poisson arrivals).
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }

    /// Thread count of the `default` work queue.
    pub fn default_threads(&self) -> u32 {
        self.default_threads
    }

    /// Thread count of the `mfg` (manufacturing) work queue.
    pub fn mfg_threads(&self) -> u32 {
        self.mfg_threads
    }

    /// Thread count of the `web` (front-end) work queue.
    pub fn web_threads(&self) -> u32 {
        self.web_threads
    }

    /// Total configured middle-tier threads.
    pub fn total_threads(&self) -> u32 {
        self.default_threads + self.mfg_threads + self.web_threads
    }

    /// The configuration as the paper's 4-tuple
    /// `[injection_rate, default, mfg, web]`.
    pub fn as_vector(&self) -> Vec<f64> {
        vec![
            self.injection_rate,
            self.default_threads as f64,
            self.mfg_threads as f64,
            self.web_threads as f64,
        ]
    }

    /// Reconstructs a configuration from the 4-tuple produced by
    /// [`ServerConfig::as_vector`] (thread counts are rounded).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for out-of-domain values or a
    /// wrong-length slice.
    pub fn from_vector(v: &[f64]) -> Result<Self, SimError> {
        if v.len() != 4 {
            return Err(SimError::InvalidConfig {
                name: "vector",
                reason: "must have exactly 4 elements",
            });
        }
        let to_threads = |x: f64, name: &'static str| -> Result<u32, SimError> {
            if !(x.is_finite() && (0.5..=1e6).contains(&x)) {
                return Err(SimError::InvalidConfig {
                    name,
                    reason: "thread count must round to at least 1",
                });
            }
            Ok(x.round() as u32)
        };
        ServerConfig::builder()
            .injection_rate(v[0])
            .default_threads(to_threads(v[1], "default_threads")?)
            .mfg_threads(to_threads(v[2], "mfg_threads")?)
            .web_threads(to_threads(v[3], "web_threads")?)
            .build()
    }
}

/// Builder for [`ServerConfig`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    injection_rate: Option<f64>,
    default_threads: Option<u32>,
    mfg_threads: Option<u32>,
    web_threads: Option<u32>,
}

impl ServerConfigBuilder {
    /// Creates a builder with no values set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the injection rate (requests per second).
    pub fn injection_rate(mut self, rate: f64) -> Self {
        self.injection_rate = Some(rate);
        self
    }

    /// Sets the `default` queue thread count.
    pub fn default_threads(mut self, threads: u32) -> Self {
        self.default_threads = Some(threads);
        self
    }

    /// Sets the `mfg` queue thread count.
    pub fn mfg_threads(mut self, threads: u32) -> Self {
        self.mfg_threads = Some(threads);
        self
    }

    /// Sets the `web` queue thread count.
    pub fn web_threads(mut self, threads: u32) -> Self {
        self.web_threads = Some(threads);
        self
    }

    /// Builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any field is missing, the
    /// injection rate is not positive, or a thread count is zero.
    pub fn build(&self) -> Result<ServerConfig, SimError> {
        let injection_rate = self.injection_rate.ok_or(SimError::InvalidConfig {
            name: "injection_rate",
            reason: "must be set",
        })?;
        if !(injection_rate.is_finite() && injection_rate > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "injection_rate",
                reason: "must be positive and finite",
            });
        }
        let get = |v: Option<u32>, name: &'static str| -> Result<u32, SimError> {
            let t = v.ok_or(SimError::InvalidConfig {
                name,
                reason: "must be set",
            })?;
            if t == 0 {
                return Err(SimError::InvalidConfig {
                    name,
                    reason: "must be at least 1 thread",
                });
            }
            Ok(t)
        };
        Ok(ServerConfig {
            injection_rate,
            default_threads: get(self.default_threads, "default_threads")?,
            mfg_threads: get(self.mfg_threads, "mfg_threads")?,
            web_threads: get(self.web_threads, "web_threads")?,
        })
    }
}

/// The driver's arrival process.
///
/// The paper's driver injects at a fixed rate (open-loop Poisson here);
/// the bursty variant is an extension for studying how burstiness alters
/// the response-surface shapes (real web traffic is rarely smooth).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at the configured injection rate.
    Poisson,
    /// A two-phase Markov-modulated Poisson process: the instantaneous
    /// rate alternates between a normal phase and a burst phase whose
    /// rate is `burst_factor` times higher. Phase durations are
    /// exponential with the given means. The phase rates are normalized
    /// so the *time-averaged* rate still equals the configured injection
    /// rate, keeping configurations comparable.
    Bursty {
        /// Rate multiplier during bursts (> 1).
        burst_factor: f64,
        /// Mean duration of the normal phase in seconds.
        mean_normal_secs: f64,
        /// Mean duration of the burst phase in seconds.
        mean_burst_secs: f64,
    },
}

impl ArrivalProcess {
    /// A moderately bursty default: 4x bursts lasting ~0.5 s about every
    /// 5 seconds.
    pub fn bursty() -> Self {
        ArrivalProcess::Bursty {
            burst_factor: 4.0,
            mean_normal_secs: 4.5,
            mean_burst_secs: 0.5,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a burst factor not above 1
    /// or non-positive phase durations.
    pub fn validate(&self) -> Result<(), SimError> {
        if let ArrivalProcess::Bursty {
            burst_factor,
            mean_normal_secs,
            mean_burst_secs,
        } = *self
        {
            if !(burst_factor.is_finite() && burst_factor > 1.0) {
                return Err(SimError::InvalidConfig {
                    name: "burst_factor",
                    reason: "must be greater than 1",
                });
            }
            for (v, name) in [
                (mean_normal_secs, "mean_normal_secs"),
                (mean_burst_secs, "mean_burst_secs"),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SimError::InvalidConfig {
                        name,
                        reason: "must be positive and finite",
                    });
                }
            }
        }
        Ok(())
    }
}

impl Default for ArrivalProcess {
    /// Poisson — the paper's open-loop driver.
    fn default() -> Self {
        ArrivalProcess::Poisson
    }
}

/// The middle-tier hardware/contention model.
///
/// Defaults approximate the paper's Table 1 host: 4 dual-core Xeons with
/// Hyper-Threading — modelled as 16 effective cores with HT yielding less
/// than linear scaling (factor folded into `effective_cores`).
///
/// The overhead knobs are the physical source of the paper's observed
/// non-linearity:
///
/// - when *runnable threads* exceed `effective_cores`, every in-flight
///   service is stretched by the processor-sharing ratio plus a
///   context-switch penalty;
/// - each additional *busy* thread in the same pool adds `lock_overhead`
///   of service-time inflation (shared-structure contention);
/// - each *configured* thread adds `memory_overhead_per_thread`
///   (footprint/GC pressure), so oversizing pools is never free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareModel {
    /// Number of effective cores shared by all middle-tier pools.
    pub effective_cores: f64,
    /// Service-time inflation per runnable thread beyond the cores.
    pub context_switch_overhead: f64,
    /// Service-time inflation per additional busy thread in the same pool.
    pub lock_overhead: f64,
    /// Service-time inflation per *configured* thread of the pool serving
    /// the stage (dispatch/scan cost and per-pool footprint) — the
    /// pool-local penalty for oversizing a queue.
    pub pool_size_overhead: f64,
    /// Service-time inflation per configured middle-tier thread.
    pub memory_overhead_per_thread: f64,
    /// Upper bound on the combined slowdown factor (keeps an overloaded
    /// simulation numerically sane).
    pub max_slowdown: f64,
}

impl HardwareModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-positive cores or
    /// negative overheads.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.effective_cores.is_finite() && self.effective_cores > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "effective_cores",
                reason: "must be positive and finite",
            });
        }
        for (v, name) in [
            (self.context_switch_overhead, "context_switch_overhead"),
            (self.lock_overhead, "lock_overhead"),
            (self.pool_size_overhead, "pool_size_overhead"),
            (
                self.memory_overhead_per_thread,
                "memory_overhead_per_thread",
            ),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SimError::InvalidConfig {
                    name,
                    reason: "must be non-negative and finite",
                });
            }
        }
        if !(self.max_slowdown.is_finite() && self.max_slowdown >= 1.0) {
            return Err(SimError::InvalidConfig {
                name: "max_slowdown",
                reason: "must be at least 1",
            });
        }
        Ok(())
    }

    /// An idealized machine with effectively unlimited cores and zero
    /// overheads — turns the middle tier into independent M/M/c queues
    /// (used to validate the simulator against queueing theory).
    // wlc-lint: allow(unreferenced-pub, reason = "the engine's mm_c_validation_against_queueing_theory test and crates/sim/tests/golden.rs run on it")
    pub fn ideal() -> Self {
        HardwareModel {
            effective_cores: 1e9,
            context_switch_overhead: 0.0,
            lock_overhead: 0.0,
            pool_size_overhead: 0.0,
            memory_overhead_per_thread: 0.0,
            max_slowdown: 1.0,
        }
    }
}

impl Default for HardwareModel {
    fn default() -> Self {
        HardwareModel {
            effective_cores: 16.0,
            context_switch_overhead: 0.0015,
            lock_overhead: 0.010,
            pool_size_overhead: 0.011,
            memory_overhead_per_thread: 0.001,
            max_slowdown: 10.0,
        }
    }
}

/// The backend database tier: a connection pool that is deliberately not
/// CPU-bound (paper: "both the driver and the database server are not
/// CPU-bound").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbModel {
    /// Size of the connection pool.
    pub connections: u32,
    /// Service-time inflation at full pool utilization (linear in the
    /// fraction of busy connections).
    pub load_factor: f64,
}

impl DbModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for zero connections or a
    /// negative load factor.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.connections == 0 {
            return Err(SimError::InvalidConfig {
                name: "connections",
                reason: "must be at least 1",
            });
        }
        if !(self.load_factor.is_finite() && self.load_factor >= 0.0) {
            return Err(SimError::InvalidConfig {
                name: "load_factor",
                reason: "must be non-negative and finite",
            });
        }
        Ok(())
    }
}

impl Default for DbModel {
    fn default() -> Self {
        DbModel {
            connections: 48,
            load_factor: 0.3,
        }
    }
}

/// The transaction mix: one [`TransactionClass`] per [`TransactionKind`].
///
/// [`WorkloadSpec::default`] reproduces the paper's workload shape — a
/// manufacturing company with dealer (client) traffic, where:
///
/// - manufacturing domain work runs on the `mfg` queue,
/// - all dealer work runs on the `default` queue,
/// - every transaction passes through the `web` front-end queue,
/// - browse traffic is web-heavy, purchase traffic is domain/DB-heavy.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    classes: [TransactionClass; 4],
}

impl WorkloadSpec {
    /// Creates a spec from explicit classes (one per kind, any order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a kind is missing or
    /// duplicated, or the probabilities do not sum to 1 (±1e-6).
    pub fn new(classes: Vec<TransactionClass>) -> Result<Self, SimError> {
        if classes.len() != 4 {
            return Err(SimError::InvalidConfig {
                name: "classes",
                reason: "must define exactly the 4 transaction kinds",
            });
        }
        let mut slots: [Option<TransactionClass>; 4] = [None; 4];
        for class in classes {
            let i = class.kind().index();
            if slots[i].is_some() {
                return Err(SimError::InvalidConfig {
                    name: "classes",
                    reason: "duplicate transaction kind",
                });
            }
            slots[i] = Some(class);
        }
        let classes = [
            slots[0].expect("all slots filled"),
            slots[1].expect("all slots filled"),
            slots[2].expect("all slots filled"),
            slots[3].expect("all slots filled"),
        ];
        let total: f64 = classes.iter().map(|c| c.probability()).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(SimError::InvalidConfig {
                name: "classes",
                reason: "probabilities must sum to 1",
            });
        }
        Ok(WorkloadSpec { classes })
    }

    /// The class definition for `kind`.
    pub fn class(&self, kind: TransactionKind) -> &TransactionClass {
        &self.classes[kind.index()]
    }

    /// All four classes in indicator order.
    pub fn classes(&self) -> &[TransactionClass; 4] {
        &self.classes
    }

    /// Mix probabilities in indicator order.
    pub fn probabilities(&self) -> [f64; 4] {
        [
            self.classes[0].probability(),
            self.classes[1].probability(),
            self.classes[2].probability(),
            self.classes[3].probability(),
        ]
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        let erl = |mean: f64| Distribution::erlang_with_mean(2, mean).expect("valid mean");
        let exp = |mean: f64| Distribution::exponential(1.0 / mean).expect("valid rate");
        let mk = |kind, p, web, domain, queue, db, constraint| {
            TransactionClass::new(
                kind,
                p,
                StageDemands {
                    web: erl(web),
                    domain: erl(domain),
                    domain_queue: queue,
                    db: exp(db),
                },
                constraint,
            )
            .expect("valid class")
        };
        WorkloadSpec {
            classes: [
                mk(
                    TransactionKind::Manufacturing,
                    0.25,
                    0.008,
                    0.017,
                    DomainQueue::Mfg,
                    0.008,
                    0.050,
                ),
                mk(
                    TransactionKind::DealerPurchase,
                    0.25,
                    0.006,
                    0.015,
                    DomainQueue::Default,
                    0.012,
                    0.050,
                ),
                mk(
                    TransactionKind::DealerManage,
                    0.20,
                    0.0045,
                    0.012,
                    DomainQueue::Default,
                    0.010,
                    0.040,
                ),
                mk(
                    TransactionKind::DealerBrowseAutos,
                    0.30,
                    0.009,
                    0.0045,
                    DomainQueue::Default,
                    0.014,
                    0.040,
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let c = ServerConfig::builder()
            .injection_rate(560.0)
            .default_threads(10)
            .mfg_threads(16)
            .web_threads(18)
            .build()
            .unwrap();
        assert_eq!(c.injection_rate(), 560.0);
        assert_eq!(c.total_threads(), 44);
    }

    #[test]
    fn builder_requires_all_fields() {
        assert!(ServerConfig::builder().build().is_err());
        assert!(ServerConfig::builder()
            .injection_rate(100.0)
            .default_threads(1)
            .mfg_threads(1)
            .build()
            .is_err());
    }

    #[test]
    fn builder_validates_values() {
        let base = ServerConfig::builder()
            .default_threads(1)
            .mfg_threads(1)
            .web_threads(1);
        assert!(base.clone().injection_rate(0.0).build().is_err());
        assert!(base.clone().injection_rate(-5.0).build().is_err());
        assert!(base
            .clone()
            .injection_rate(10.0)
            .web_threads(0)
            .build()
            .is_err());
        assert!(base.injection_rate(10.0).build().is_ok());
    }

    #[test]
    fn vector_roundtrip() {
        let c = ServerConfig::builder()
            .injection_rate(300.0)
            .default_threads(8)
            .mfg_threads(12)
            .web_threads(14)
            .build()
            .unwrap();
        let v = c.as_vector();
        assert_eq!(v, vec![300.0, 8.0, 12.0, 14.0]);
        assert_eq!(ServerConfig::from_vector(&v).unwrap(), c);
    }

    #[test]
    fn from_vector_rounds_threads() {
        let c = ServerConfig::from_vector(&[100.0, 7.6, 11.2, 9.5]).unwrap();
        assert_eq!(c.default_threads(), 8);
        assert_eq!(c.mfg_threads(), 11);
        assert_eq!(c.web_threads(), 10);
    }

    #[test]
    fn from_vector_validates() {
        assert!(ServerConfig::from_vector(&[100.0, 1.0, 1.0]).is_err());
        assert!(ServerConfig::from_vector(&[100.0, 0.0, 1.0, 1.0]).is_err());
        assert!(ServerConfig::from_vector(&[0.0, 1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn arrival_process_validation() {
        ArrivalProcess::Poisson.validate().unwrap();
        ArrivalProcess::bursty().validate().unwrap();
        assert!(ArrivalProcess::Bursty {
            burst_factor: 1.0,
            mean_normal_secs: 1.0,
            mean_burst_secs: 1.0
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Bursty {
            burst_factor: 2.0,
            mean_normal_secs: 0.0,
            mean_burst_secs: 1.0
        }
        .validate()
        .is_err());
        assert_eq!(ArrivalProcess::default(), ArrivalProcess::Poisson);
    }

    #[test]
    fn hardware_default_is_valid_and_paperlike() {
        let hw = HardwareModel::default();
        hw.validate().unwrap();
        assert_eq!(hw.effective_cores, 16.0);
    }

    #[test]
    fn hardware_validation_rejects_bad() {
        let bad_cores = HardwareModel {
            effective_cores: 0.0,
            ..HardwareModel::default()
        };
        assert!(bad_cores.validate().is_err());
        let bad_lock = HardwareModel {
            lock_overhead: -1.0,
            ..HardwareModel::default()
        };
        assert!(bad_lock.validate().is_err());
        let bad_cap = HardwareModel {
            max_slowdown: 0.5,
            ..HardwareModel::default()
        };
        assert!(bad_cap.validate().is_err());
    }

    #[test]
    fn ideal_hardware_has_no_overheads() {
        let hw = HardwareModel::ideal();
        hw.validate().unwrap();
        assert_eq!(hw.context_switch_overhead, 0.0);
        assert_eq!(hw.lock_overhead, 0.0);
        assert_eq!(hw.memory_overhead_per_thread, 0.0);
    }

    #[test]
    fn db_model_validation() {
        DbModel::default().validate().unwrap();
        assert!(DbModel {
            connections: 0,
            load_factor: 0.0
        }
        .validate()
        .is_err());
        assert!(DbModel {
            connections: 10,
            load_factor: -0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn workload_default_probabilities_sum_to_one() {
        let spec = WorkloadSpec::default();
        let total: f64 = spec.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn workload_default_routing() {
        let spec = WorkloadSpec::default();
        assert_eq!(
            spec.class(TransactionKind::Manufacturing)
                .demands()
                .domain_queue,
            DomainQueue::Mfg
        );
        for kind in [
            TransactionKind::DealerPurchase,
            TransactionKind::DealerManage,
            TransactionKind::DealerBrowseAutos,
        ] {
            assert_eq!(
                spec.class(kind).demands().domain_queue,
                DomainQueue::Default
            );
        }
    }

    #[test]
    fn workload_new_rejects_bad_mixes() {
        let spec = WorkloadSpec::default();
        // Duplicate a kind.
        let dup = vec![
            *spec.class(TransactionKind::Manufacturing),
            *spec.class(TransactionKind::Manufacturing),
            *spec.class(TransactionKind::DealerManage),
            *spec.class(TransactionKind::DealerBrowseAutos),
        ];
        assert!(WorkloadSpec::new(dup).is_err());
        // Too few classes.
        assert!(WorkloadSpec::new(vec![*spec.class(TransactionKind::Manufacturing)]).is_err());
    }

    #[test]
    fn workload_new_accepts_valid_reordering() {
        let spec = WorkloadSpec::default();
        let shuffled = vec![
            *spec.class(TransactionKind::DealerBrowseAutos),
            *spec.class(TransactionKind::Manufacturing),
            *spec.class(TransactionKind::DealerManage),
            *spec.class(TransactionKind::DealerPurchase),
        ];
        let rebuilt = WorkloadSpec::new(shuffled).unwrap();
        assert_eq!(rebuilt, spec);
    }
}
