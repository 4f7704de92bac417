//! Workload drift profiles and the live sample stream that feeds the
//! continuous-learning supervisor.
//!
//! The paper trains once on a static design; real workloads drift. A
//! [`DriftProfile`] deforms the default TPC-W-style workload as a pure
//! function of a **tick** (a virtual wall-clock index), so the same tick
//! always yields the same workload no matter how the stream is windowed
//! or parallelised:
//!
//! - **service-demand ramp** — every stage demand grows by a fixed
//!   fraction per tick (capped), modeling data-set growth or hardware
//!   aging,
//! - **routing-mix rotation** — the class-mix probabilities rotate one
//!   position every `period` ticks, modeling diurnal traffic shifts,
//! - **regime switch** — at tick `at` the mix flips to a
//!   manufacturing-heavy alternate regime with slower DB demands,
//!   modeling a batch-window cutover.
//!
//! [`stream_window`] turns a contiguous tick range into measured
//! samples: each tick samples a server configuration, simulates it under
//! the drifted workload, and passes through the same fault-injection
//! machinery as [`crate::run_design_faulty_jobs`] (dropout/stall retried then
//! quarantined, truncation/spikes degrade the measurement). All
//! randomness is derived from `(base_seed, absolute tick, attempt)`, so
//! a stream is bit-identical for any worker count *and* for any
//! windowing of the same tick range.

use std::fmt;
use std::str::FromStr;

use wlc_data::Dataset;
use wlc_math::distributions::Distribution;
use wlc_math::rng::{Seed, Xoshiro256};

use crate::config::{ServerConfig, WorkloadSpec};
use crate::fault::{run_campaign, Campaign, FaultProfile, FaultSummary};
use crate::runner::Simulation;
use crate::transaction::{DomainQueue, StageDemands, TransactionClass, TransactionKind};
use crate::SimError;

/// Stream constant separating configuration sampling from simulation
/// and fault seeds.
const CONFIG_STREAM: u64 = 0xC0F1;

/// Demand growth under a ramp is capped at this multiple of the base
/// demand so arbitrarily late ticks stay simulable.
const MAX_DEMAND_FACTOR: f64 = 3.0;

/// Configuration sampling ranges for streamed ticks; these mirror the
/// defaults of `wlc collect` so streamed samples cover the same input
/// region as the bootstrap design.
const RATE_RANGE: (f64, f64) = (350.0, 620.0);
const DEFAULT_RANGE: (f64, f64) = (5.0, 20.0);
const MFG_RANGE: (f64, f64) = (10.0, 24.0);
const WEB_RANGE: (f64, f64) = (5.0, 20.0);

/// Which deformation a [`DriftProfile`] applies over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriftKind {
    /// No drift: every tick sees the default workload.
    Steady,
    /// Stage demands grow by `rate` per tick (capped at 3x).
    DemandRamp,
    /// Mix probabilities rotate one class position every `period` ticks.
    RoutingRotation,
    /// The mix flips to an alternate regime at tick `at`.
    RegimeSwitch,
}

impl fmt::Display for DriftKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriftKind::Steady => write!(f, "steady"),
            DriftKind::DemandRamp => write!(f, "demand ramp"),
            DriftKind::RoutingRotation => write!(f, "routing rotation"),
            DriftKind::RegimeSwitch => write!(f, "regime switch"),
        }
    }
}

/// A deterministic workload deformation indexed by tick.
///
/// # Examples
///
/// ```
/// use wlc_sim::{DriftKind, DriftProfile};
///
/// let p: DriftProfile = "kind=ramp,rate=0.02".parse()?;
/// assert_eq!(p.kind, DriftKind::DemandRamp);
/// let steady: DriftProfile = "".parse()?;
/// assert_eq!(steady, DriftProfile::steady());
/// assert!("kind=warp".parse::<DriftProfile>().is_err());
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftProfile {
    /// The deformation applied.
    pub kind: DriftKind,
    /// Fractional demand growth per tick (ramp only).
    pub rate: f64,
    /// Ticks per one-position mix rotation (rotation only).
    pub period: u64,
    /// First tick of the alternate regime (switch only).
    pub at: u64,
}

impl Default for DriftProfile {
    fn default() -> Self {
        DriftProfile::steady()
    }
}

impl DriftProfile {
    /// The profile that never changes the workload.
    pub fn steady() -> Self {
        DriftProfile {
            kind: DriftKind::Steady,
            rate: 0.0,
            period: 1,
            at: 0,
        }
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDriftProfile`] if the ramp rate is
    /// negative or non-finite, or the rotation period is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.rate.is_finite() && self.rate >= 0.0) {
            return Err(SimError::InvalidDriftProfile {
                reason: format!("`rate` must be non-negative and finite, got {}", self.rate),
            });
        }
        if self.period == 0 {
            return Err(SimError::InvalidDriftProfile {
                reason: "`period` must be at least 1".to_string(),
            });
        }
        Ok(())
    }

    /// The workload in effect at `tick` — a pure function of the
    /// profile and the tick.
    ///
    /// Tick 0 of every profile equals [`WorkloadSpec::default`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidDriftProfile`] for an invalid profile
    /// (see [`DriftProfile::validate`]).
    pub fn workload_at(&self, tick: u64) -> Result<WorkloadSpec, SimError> {
        self.validate()?;
        match self.kind {
            DriftKind::Steady => build_spec(BASE_PROBS, 1.0, 1.0),
            DriftKind::DemandRamp => {
                let factor = (1.0 + self.rate * tick as f64).min(MAX_DEMAND_FACTOR);
                build_spec(BASE_PROBS, factor, factor)
            }
            DriftKind::RoutingRotation => {
                let shift = ((tick / self.period) % 4) as usize;
                let mut probs = [0.0; 4];
                for (i, p) in probs.iter_mut().enumerate() {
                    *p = BASE_PROBS[(i + shift) % 4];
                }
                build_spec(probs, 1.0, 1.0)
            }
            DriftKind::RegimeSwitch => {
                if tick < self.at {
                    build_spec(BASE_PROBS, 1.0, 1.0)
                } else {
                    // Manufacturing-heavy alternate regime with slower
                    // DB demands (a batch window opened).
                    build_spec(SWITCHED_PROBS, 1.0, 1.5)
                }
            }
        }
    }
}

impl FromStr for DriftProfile {
    type Err = SimError;

    /// Parses a `key=value` comma list, e.g. `"kind=ramp,rate=0.02"`,
    /// `"kind=rotate,period=20"`, `"kind=switch,at=40"`. The empty
    /// string and `"kind=none"` yield [`DriftProfile::steady`].
    fn from_str(s: &str) -> Result<Self, SimError> {
        let mut profile = DriftProfile::steady();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=')
                    .ok_or_else(|| SimError::InvalidDriftProfile {
                        reason: format!("expected `key=value`, got `{part}`"),
                    })?;
            let value = value.trim();
            match key.trim() {
                "kind" => {
                    profile.kind = match value {
                        "none" | "steady" => DriftKind::Steady,
                        "ramp" => DriftKind::DemandRamp,
                        "rotate" => DriftKind::RoutingRotation,
                        "switch" => DriftKind::RegimeSwitch,
                        other => {
                            return Err(SimError::InvalidDriftProfile {
                                reason: format!(
                                    "unknown kind `{other}` (expected none, ramp, rotate \
                                     or switch)"
                                ),
                            });
                        }
                    }
                }
                "rate" => {
                    profile.rate = value.parse().map_err(|_| SimError::InvalidDriftProfile {
                        reason: format!("`{value}` is not a number in `{part}`"),
                    })?;
                }
                "period" => {
                    profile.period = value.parse().map_err(|_| SimError::InvalidDriftProfile {
                        reason: format!("`{value}` is not an integer in `{part}`"),
                    })?;
                }
                "at" => {
                    profile.at = value.parse().map_err(|_| SimError::InvalidDriftProfile {
                        reason: format!("`{value}` is not an integer in `{part}`"),
                    })?;
                }
                other => {
                    return Err(SimError::InvalidDriftProfile {
                        reason: format!(
                            "unknown key `{other}` (expected kind, rate, period or at)"
                        ),
                    });
                }
            }
        }
        profile.validate()?;
        Ok(profile)
    }
}

/// Mix probabilities of [`WorkloadSpec::default`] in indicator order
/// (Manufacturing, DealerPurchase, DealerManage, DealerBrowseAutos).
const BASE_PROBS: [f64; 4] = [0.25, 0.25, 0.20, 0.30];

/// The regime-switch alternate mix: browse traffic collapses, the
/// manufacturing and management shares grow. Sums to 1.
const SWITCHED_PROBS: [f64; 4] = [0.40, 0.20, 0.25, 0.15];

/// Base stage-demand means and constraints, one row per kind in
/// indicator order: `(web, domain, queue, db, constraint)`. The values
/// reproduce [`WorkloadSpec::default`]; a test pins the equivalence.
const BASE_DEMANDS: [(f64, f64, DomainQueue, f64, f64); 4] = [
    (0.008, 0.017, DomainQueue::Mfg, 0.008, 0.050),
    (0.006, 0.015, DomainQueue::Default, 0.012, 0.050),
    (0.0045, 0.012, DomainQueue::Default, 0.010, 0.040),
    (0.009, 0.0045, DomainQueue::Default, 0.014, 0.040),
];

fn build_spec(
    probs: [f64; 4],
    demand_factor: f64,
    db_factor: f64,
) -> Result<WorkloadSpec, SimError> {
    let mut classes = Vec::with_capacity(4);
    for (kind, (p, row)) in TransactionKind::ALL
        .iter()
        .zip(probs.iter().zip(BASE_DEMANDS.iter()))
    {
        let (web, domain, queue, db, constraint) = *row;
        classes.push(TransactionClass::new(
            *kind,
            *p,
            StageDemands {
                web: Distribution::erlang_with_mean(2, web * demand_factor)?,
                domain: Distribution::erlang_with_mean(2, domain * demand_factor)?,
                domain_queue: queue,
                db: Distribution::exponential(1.0 / (db * demand_factor * db_factor))?,
            },
            constraint,
        )?);
    }
    WorkloadSpec::new(classes)
}

/// Everything needed to materialise a window of the live stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Root seed; combined with the absolute tick for every draw.
    pub base_seed: u64,
    /// Workload deformation over time.
    pub drift: DriftProfile,
    /// Measurement faults applied to each tick's run.
    pub faults: FaultProfile,
    /// Simulated seconds per tick.
    pub duration_secs: f64,
    /// Warmup seconds discarded per tick.
    pub warmup_secs: f64,
    /// Retries before a dropped/stalled tick is quarantined.
    pub max_retries: usize,
    /// Worker count (`<= 1` runs sequentially); never affects output.
    pub jobs: usize,
}

/// Materialises ticks `start_tick .. start_tick + ticks` of the live
/// stream as a [`Dataset`].
///
/// Each tick samples a server configuration uniformly from the
/// `wlc collect` default ranges, simulates it under
/// [`DriftProfile::workload_at`] for that tick, and applies the fault
/// profile exactly as [`crate::run_design_faulty_jobs`] does (dropout
/// and stall attempts are retried with fresh fault draws, then the tick
/// is quarantined; truncation and spikes degrade the measurement).
/// Quarantined entries in the returned [`FaultSummary`] are **absolute
/// ticks**. Output is bit-identical for any `jobs` value and for any
/// windowing of the same tick range.
///
/// # Errors
///
/// - [`SimError::InvalidFaultProfile`] / [`SimError::InvalidDriftProfile`]
///   for invalid profiles.
/// - [`SimError::InvalidConfig`] / [`SimError::NoCompletions`] from any
///   individual (non-injected) run failure.
/// - [`SimError::Data`] if dataset assembly fails.
///
/// # Examples
///
/// ```
/// use wlc_sim::{stream_window, DriftProfile, FaultProfile, StreamConfig};
///
/// let cfg = StreamConfig {
///     base_seed: 7,
///     drift: "kind=rotate,period=2".parse()?,
///     faults: FaultProfile::none(),
///     duration_secs: 3.0,
///     warmup_secs: 0.5,
///     max_retries: 2,
///     jobs: 1,
/// };
/// let (ds, faults) = stream_window(&cfg, 0, 2)?;
/// assert_eq!(ds.len(), 2);
/// assert!(faults.is_clean());
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn stream_window(
    cfg: &StreamConfig,
    start_tick: u64,
    ticks: usize,
) -> Result<(Dataset, FaultSummary), SimError> {
    cfg.faults.validate()?;
    cfg.drift.validate()?;
    let config_root = Seed::new(cfg.base_seed).derive(CONFIG_STREAM);
    let campaign = Campaign {
        base_seed: cfg.base_seed,
        profile: cfg.faults,
        duration_secs: cfg.duration_secs,
        warmup_secs: cfg.warmup_secs,
        max_retries: cfg.max_retries,
        jobs: cfg.jobs,
    };
    run_campaign(
        &campaign,
        ticks,
        |i| start_tick + i as u64,
        |i| {
            let tick = start_tick + i as u64;
            let config = sample_config(config_root, tick)?;
            let workload = cfg.drift.workload_at(tick)?;
            Ok((
                config.as_vector(),
                Simulation::new(config).workload(workload),
            ))
        },
        |i| start_tick as usize + i,
    )
}

/// Samples the tick's server configuration from the collect ranges.
fn sample_config(config_root: Seed, tick: u64) -> Result<ServerConfig, SimError> {
    let mut rng = Xoshiro256::seed_from(config_root.derive(tick).value());
    let rate = rng.next_range(RATE_RANGE.0, RATE_RANGE.1);
    let default = rng.next_range(DEFAULT_RANGE.0, DEFAULT_RANGE.1).round() as u32;
    let mfg = rng.next_range(MFG_RANGE.0, MFG_RANGE.1).round() as u32;
    let web = rng.next_range(WEB_RANGE.0, WEB_RANGE.1).round() as u32;
    ServerConfig::builder()
        .injection_rate(rate)
        .default_threads(default)
        .mfg_threads(mfg)
        .web_threads(web)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OUTPUT_NAMES;

    #[test]
    fn parse_profiles() {
        let ramp: DriftProfile = "kind=ramp, rate=0.02".parse().unwrap();
        assert_eq!(ramp.kind, DriftKind::DemandRamp);
        assert_eq!(ramp.rate, 0.02);

        let rotate: DriftProfile = "kind=rotate,period=20".parse().unwrap();
        assert_eq!(rotate.kind, DriftKind::RoutingRotation);
        assert_eq!(rotate.period, 20);

        let switch: DriftProfile = "kind=switch,at=40".parse().unwrap();
        assert_eq!(switch.kind, DriftKind::RegimeSwitch);
        assert_eq!(switch.at, 40);

        assert_eq!("".parse::<DriftProfile>().unwrap(), DriftProfile::steady());
        assert_eq!(
            "kind=none".parse::<DriftProfile>().unwrap(),
            DriftProfile::steady()
        );
        assert_eq!(DriftProfile::default(), DriftProfile::steady());
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            "kind",
            "kind=warp",
            "rate=x",
            "rate=-0.1",
            "rate=inf",
            "period=0",
            "period=1.5",
            "at=x",
            "mystery=1",
        ] {
            let err = bad.parse::<DriftProfile>().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidDriftProfile { .. }),
                "`{bad}` -> {err}"
            );
        }
    }

    #[test]
    fn tick_zero_matches_default_workload_for_every_kind() {
        for profile in [
            DriftProfile::steady(),
            "kind=ramp,rate=0.05".parse().unwrap(),
            "kind=rotate,period=7".parse().unwrap(),
            "kind=switch,at=10".parse().unwrap(),
        ] {
            assert_eq!(
                profile.workload_at(0).unwrap(),
                WorkloadSpec::default(),
                "{profile:?}"
            );
        }
    }

    #[test]
    fn ramp_grows_then_caps() {
        let ramp: DriftProfile = "kind=ramp,rate=0.1".parse().unwrap();
        let early = ramp.workload_at(1).unwrap();
        let later = ramp.workload_at(5).unwrap();
        assert_ne!(early, later);
        // Probabilities never change under a ramp.
        assert_eq!(early.probabilities(), BASE_PROBS);
        // rate * tick >= 2.0 hits the 3x cap: further ticks are frozen.
        let capped = ramp.workload_at(20).unwrap();
        assert_eq!(capped, ramp.workload_at(21).unwrap());
    }

    #[test]
    fn rotation_permutes_probabilities() {
        let rotate: DriftProfile = "kind=rotate,period=5".parse().unwrap();
        let base = rotate.workload_at(4).unwrap().probabilities();
        assert_eq!(base, BASE_PROBS);
        let shifted = rotate.workload_at(5).unwrap().probabilities();
        assert_eq!(shifted, [0.25, 0.20, 0.30, 0.25]);
        // A full rotation returns to the base mix.
        assert_eq!(rotate.workload_at(20).unwrap().probabilities(), BASE_PROBS);
    }

    #[test]
    fn switch_flips_exactly_at_the_boundary() {
        let switch: DriftProfile = "kind=switch,at=8".parse().unwrap();
        assert_eq!(switch.workload_at(7).unwrap(), WorkloadSpec::default());
        let after = switch.workload_at(8).unwrap();
        assert_ne!(after, WorkloadSpec::default());
        assert_eq!(after.probabilities(), SWITCHED_PROBS);
        assert_eq!(after, switch.workload_at(100).unwrap());
    }

    fn stream(seed: u64, jobs: usize) -> StreamConfig {
        StreamConfig {
            base_seed: seed,
            drift: "kind=rotate,period=2".parse().unwrap(),
            faults: FaultProfile::none(),
            duration_secs: 3.0,
            warmup_secs: 0.5,
            max_retries: 2,
            jobs,
        }
    }

    #[test]
    fn stream_is_deterministic_across_worker_counts() {
        let serial = stream_window(&stream(13, 1), 0, 4).unwrap();
        let parallel = stream_window(&stream(13, 4), 0, 4).unwrap();
        assert_eq!(serial.0, parallel.0);
        assert_eq!(serial.1, parallel.1);
        assert!(!serial.0.is_empty());
    }

    #[test]
    fn stream_is_invariant_to_windowing() {
        let whole = stream_window(&stream(9, 2), 0, 6).unwrap().0;
        let first = stream_window(&stream(9, 2), 0, 2).unwrap().0;
        let rest = stream_window(&stream(9, 2), 2, 4).unwrap().0;
        let mut joined = first;
        joined.merge(&rest).unwrap();
        assert_eq!(whole, joined);
    }

    #[test]
    fn certain_dropout_quarantines_absolute_ticks() {
        let mut cfg = stream(3, 1);
        cfg.faults = "dropout=1.0".parse().unwrap();
        let (ds, summary) = stream_window(&cfg, 10, 2).unwrap();
        assert!(ds.is_empty());
        assert_eq!(summary.quarantined, vec![10, 11]);
        // Every attempt (initial + 2 retries) on both ticks dropped.
        assert_eq!(summary.dropouts, 6);
    }

    #[test]
    fn faults_degrade_but_drift_still_applies() {
        let mut cfg = stream(5, 2);
        cfg.faults = "spike=1.0,spike_scale=1.0".parse().unwrap();
        let (noisy, summary) = stream_window(&cfg, 0, 2).unwrap();
        let (clean, _) = stream_window(&stream(5, 2), 0, 2).unwrap();
        assert_eq!(summary.spikes, 2 * OUTPUT_NAMES.len());
        for (n, c) in noisy.samples().iter().zip(clean.samples()) {
            assert_eq!(n.x(), c.x(), "spikes must not touch the configuration");
            for (nv, cv) in n.y().iter().zip(c.y()) {
                assert!(nv >= cv, "spike must not shrink an indicator");
            }
        }
    }
}
