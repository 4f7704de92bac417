//! Fault injection for robustness testing of the data-collection
//! pipeline.
//!
//! Real measurement campaigns lose runs: a load generator dies, a
//! monitoring agent truncates its window, a counter picks up a noise
//! spike, a work queue stalls. A [`FaultProfile`] injects those failure
//! modes into [`run_design_faulty`] so the rest of the pipeline
//! (retries, quarantine, strict CSV validation) can be exercised
//! deterministically:
//!
//! - **sample dropout** — the run fails outright (retryable),
//! - **queue stall** — the run hangs and is abandoned (retryable),
//! - **truncated run** — only a fraction of the measurement window is
//!   collected, inflating sampling error,
//! - **noise spike** — individual indicators are multiplied by a random
//!   factor `>= 1`.
//!
//! All faults are driven by an RNG derived from
//! `(base_seed, index, attempt)`, so a faulty campaign is bit-identical
//! for any worker count, and a retry of the same task sees *different*
//! faults — exactly like re-running a flaky measurement.

use std::fmt;
use std::str::FromStr;

use wlc_data::{Dataset, Sample};
use wlc_math::rng::{Seed, Xoshiro256};

use crate::config::ServerConfig;
use crate::runner::{Simulation, INPUT_NAMES, OUTPUT_NAMES};
use crate::SimError;

/// Stream constant separating fault randomness from simulation seeds.
pub(crate) const FAULT_STREAM: u64 = 0xF417;

/// Which injected failure mode fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The whole run was dropped (e.g. load generator died).
    SampleDropout,
    /// A work queue stalled and the run was abandoned.
    QueueStall,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::SampleDropout => write!(f, "sample dropout"),
            FaultKind::QueueStall => write!(f, "queue stall"),
        }
    }
}

/// Probabilities and magnitudes of injected measurement faults.
///
/// The all-zero [`FaultProfile::none`] injects nothing and reproduces the
/// clean pipeline bit-for-bit.
///
/// # Examples
///
/// ```
/// use wlc_sim::FaultProfile;
///
/// let p: FaultProfile = "dropout=0.2,spike=0.1,spike_scale=0.5".parse()?;
/// assert_eq!(p.sample_dropout, 0.2);
/// assert!("dropout=2.0".parse::<FaultProfile>().is_err());
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability that a run attempt is dropped entirely.
    pub sample_dropout: f64,
    /// Per-indicator probability of a multiplicative noise spike.
    pub noise_spike_prob: f64,
    /// Spike magnitude: the indicator is scaled by `1 + scale * |g|`
    /// with `g` standard normal.
    pub noise_spike_scale: f64,
    /// Probability that a run attempt is truncated.
    pub truncate_prob: f64,
    /// Fraction of the post-warmup window kept by a truncated run,
    /// in `(0, 1]`.
    pub truncate_frac: f64,
    /// Probability that a run attempt stalls and is abandoned.
    pub stall_prob: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile::none()
    }
}

impl FaultProfile {
    /// The profile that injects no faults at all.
    pub fn none() -> Self {
        FaultProfile {
            sample_dropout: 0.0,
            noise_spike_prob: 0.0,
            noise_spike_scale: 0.0,
            truncate_prob: 0.0,
            truncate_frac: 1.0,
            stall_prob: 0.0,
        }
    }

    /// Whether this profile can affect any run.
    pub fn is_none(&self) -> bool {
        self.sample_dropout == 0.0
            && self.noise_spike_prob == 0.0
            && self.truncate_prob == 0.0
            && self.stall_prob == 0.0
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFaultProfile`] if a probability is
    /// outside `[0, 1]`, the spike scale is negative or non-finite, or
    /// `truncate_frac` is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        let probs = [
            ("dropout", self.sample_dropout),
            ("spike", self.noise_spike_prob),
            ("truncate", self.truncate_prob),
            ("stall", self.stall_prob),
        ];
        for (name, p) in probs {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(SimError::InvalidFaultProfile {
                    reason: format!("`{name}` must be a probability in [0, 1], got {p}"),
                });
            }
        }
        if !(self.noise_spike_scale.is_finite() && self.noise_spike_scale >= 0.0) {
            return Err(SimError::InvalidFaultProfile {
                reason: format!(
                    "`spike_scale` must be non-negative and finite, got {}",
                    self.noise_spike_scale
                ),
            });
        }
        if !(self.truncate_frac.is_finite()
            && self.truncate_frac > 0.0
            && self.truncate_frac <= 1.0)
        {
            return Err(SimError::InvalidFaultProfile {
                reason: format!(
                    "`truncate_frac` must be in (0, 1], got {}",
                    self.truncate_frac
                ),
            });
        }
        Ok(())
    }
}

impl FromStr for FaultProfile {
    type Err = SimError;

    /// Parses a `key=value` comma list, e.g.
    /// `"dropout=0.1,spike=0.05,spike_scale=0.5,truncate=0.1,truncate_frac=0.5,stall=0.02"`.
    /// Unspecified keys keep their [`FaultProfile::none`] values; the
    /// empty string yields [`FaultProfile::none`].
    fn from_str(s: &str) -> Result<Self, SimError> {
        let mut profile = FaultProfile::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) =
                part.split_once('=')
                    .ok_or_else(|| SimError::InvalidFaultProfile {
                        reason: format!("expected `key=value`, got `{part}`"),
                    })?;
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| SimError::InvalidFaultProfile {
                    reason: format!("`{}` is not a number in `{part}`", value.trim()),
                })?;
            match key.trim() {
                "dropout" => profile.sample_dropout = value,
                "spike" => profile.noise_spike_prob = value,
                "spike_scale" => profile.noise_spike_scale = value,
                "truncate" => profile.truncate_prob = value,
                "truncate_frac" => profile.truncate_frac = value,
                "stall" => profile.stall_prob = value,
                other => {
                    return Err(SimError::InvalidFaultProfile {
                        reason: format!(
                            "unknown key `{other}` (expected dropout, spike, spike_scale, \
                             truncate, truncate_frac or stall)"
                        ),
                    });
                }
            }
        }
        profile.validate()?;
        Ok(profile)
    }
}

/// Tally of faults injected during one [`run_design_faulty`] campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct FaultSummary {
    /// Run attempts dropped outright.
    pub dropouts: usize,
    /// Run attempts abandoned to a stalled queue.
    pub stalls: usize,
    /// Runs measured on a truncated window.
    pub truncations: usize,
    /// Individual indicator values hit by a noise spike.
    pub spikes: usize,
    /// Configuration indices whose every attempt failed; these rows are
    /// absent from the dataset.
    pub quarantined: Vec<usize>,
}

impl FaultSummary {
    /// Whether any fault fired at all.
    pub fn is_clean(&self) -> bool {
        self.dropouts == 0 && self.stalls == 0 && self.truncations == 0 && self.spikes == 0
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dropouts, {} stalls, {} truncated runs, {} indicator spikes, \
             {} quarantined configurations",
            self.dropouts,
            self.stalls,
            self.truncations,
            self.spikes,
            self.quarantined.len()
        )
    }
}

/// One standard-normal draw (Box–Muller; consumes two uniforms).
pub(crate) fn standard_normal(rng: &mut Xoshiro256) -> f64 {
    let u1 = 1.0 - rng.next_f64(); // (0, 1]: safe for ln
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// [`crate::run_design`] under an injected [`FaultProfile`], with
/// per-configuration retries.
///
/// Each attempt draws its faults from an RNG seeded by
/// `(base_seed, index, attempt)`; a dropout or stall fails the attempt
/// and the pool retries it (up to `max_retries` times) with fresh fault
/// draws. A configuration whose every attempt fails is **quarantined**:
/// its row is omitted from the dataset and its index recorded in the
/// [`FaultSummary`]. Truncations and spikes degrade the measurement but
/// do not fail it. The simulation seed itself depends only on `index`,
/// so with [`FaultProfile::none`] the output is bit-identical to
/// [`crate::run_design`].
///
/// # Errors
///
/// - [`SimError::InvalidFaultProfile`] for an invalid profile.
/// - [`SimError::InvalidConfig`] / [`SimError::NoCompletions`] from any
///   individual (non-injected) run failure.
/// - [`SimError::Data`] if dataset assembly fails.
///
/// # Examples
///
/// ```
/// use wlc_sim::{run_design_faulty, FaultProfile, ServerConfig};
///
/// let config = ServerConfig::builder()
///     .injection_rate(200.0)
///     .default_threads(8)
///     .mfg_threads(8)
///     .web_threads(8)
///     .build()?;
/// let profile: FaultProfile = "truncate=1.0,truncate_frac=0.5".parse()?;
/// let (ds, faults) = run_design_faulty(&[config], 7, 4.0, 1.0, profile, 2)?;
/// assert_eq!(ds.len(), 1);
/// assert_eq!(faults.truncations, 1);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn run_design_faulty(
    configs: &[ServerConfig],
    base_seed: u64,
    duration_secs: f64,
    warmup_secs: f64,
    profile: FaultProfile,
    max_retries: usize,
) -> Result<(Dataset, FaultSummary), SimError> {
    run_design_faulty_jobs(
        configs,
        base_seed,
        duration_secs,
        warmup_secs,
        profile,
        max_retries,
        wlc_exec::default_jobs(),
    )
}

/// [`run_design_faulty`] with an explicit worker count (`jobs <= 1` runs
/// sequentially). Output is bit-identical for every `jobs` value.
///
/// # Errors
///
/// As for [`run_design_faulty`].
pub fn run_design_faulty_jobs(
    configs: &[ServerConfig],
    base_seed: u64,
    duration_secs: f64,
    warmup_secs: f64,
    profile: FaultProfile,
    max_retries: usize,
    jobs: usize,
) -> Result<(Dataset, FaultSummary), SimError> {
    profile.validate()?;
    let campaign = Campaign {
        base_seed,
        profile,
        duration_secs,
        warmup_secs,
        max_retries,
        jobs,
    };
    run_campaign(
        &campaign,
        configs.len(),
        |i| i as u64,
        |i| Ok((configs[i].as_vector(), Simulation::new(configs[i]))),
        |i| i,
    )
}

/// The settings a fault-injected campaign shares across its runs.
pub(crate) struct Campaign {
    pub base_seed: u64,
    pub profile: FaultProfile,
    pub duration_secs: f64,
    pub warmup_secs: f64,
    pub max_retries: usize,
    pub jobs: usize,
}

/// Runs `n` simulations under `campaign.profile` with per-index retries:
/// the one fault-draw sequence behind [`run_design_faulty_jobs`] and
/// [`crate::stream_window`].
///
/// The caller supplies three things for index `i`: `key(i)`, which seeds
/// both the fault draws (per attempt) and the simulation; `simulation(i)`,
/// the sample's inputs and its simulation, whose seed and timing are set
/// here; and `quarantine_id(i)`, recorded when every attempt fails. Each
/// attempt draws dropout, then stall, then truncation, then one spike
/// draw per indicator; the profile must already be validated.
pub(crate) fn run_campaign<K, S, Q>(
    campaign: &Campaign,
    n: usize,
    key: K,
    simulation: S,
    quarantine_id: Q,
) -> Result<(Dataset, FaultSummary), SimError>
where
    K: Fn(usize) -> u64 + Sync,
    S: Fn(usize) -> Result<(Vec<f64>, Simulation), SimError> + Sync,
    Q: Fn(usize) -> usize,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let Campaign {
        base_seed,
        profile,
        duration_secs,
        warmup_secs,
        max_retries,
        jobs,
    } = *campaign;
    let root = Seed::new(base_seed);
    let fault_root = root.derive(FAULT_STREAM);
    let dropouts = AtomicUsize::new(0);
    let stalls = AtomicUsize::new(0);
    let truncations = AtomicUsize::new(0);
    let spikes = AtomicUsize::new(0);

    // One accepted sample: inputs and indicator outputs.
    type SampleRow = (Vec<f64>, Vec<f64>);
    let task = |i: usize, attempt: usize| -> Result<Option<SampleRow>, SimError> {
        let key = key(i);
        let mut faults =
            Xoshiro256::seed_from(fault_root.derive(key).derive(attempt as u64).value());
        // Hard failures first: the run never produces a measurement.
        if faults.next_f64() < profile.sample_dropout {
            dropouts.fetch_add(1, Ordering::Relaxed);
            let kind = FaultKind::SampleDropout;
            if attempt < max_retries {
                return Err(SimError::InjectedFault { index: i, kind });
            }
            return Ok(None); // retries exhausted: quarantine the row
        }
        if faults.next_f64() < profile.stall_prob {
            stalls.fetch_add(1, Ordering::Relaxed);
            let kind = FaultKind::QueueStall;
            if attempt < max_retries {
                return Err(SimError::InjectedFault { index: i, kind });
            }
            return Ok(None);
        }
        // Degradations: the run completes but the measurement suffers.
        let mut duration = duration_secs;
        if faults.next_f64() < profile.truncate_prob {
            truncations.fetch_add(1, Ordering::Relaxed);
            duration = warmup_secs + (duration_secs - warmup_secs) * profile.truncate_frac;
        }
        let (x, sim) = simulation(i)?;
        let m = sim
            .seed(root.derive(key).value())
            .duration_secs(duration)
            .warmup_secs(warmup_secs)
            .run()?;
        let mut y = m.indicators();
        for v in &mut y {
            if faults.next_f64() < profile.noise_spike_prob {
                spikes.fetch_add(1, Ordering::Relaxed);
                *v *= 1.0 + profile.noise_spike_scale * standard_normal(&mut faults).abs();
            }
        }
        Ok(Some((x, y)))
    };
    let rows = wlc_exec::try_map_indexed_retry(jobs, n, max_retries, task)?;

    let mut ds = Dataset::new(
        INPUT_NAMES.iter().map(|s| s.to_string()).collect(),
        OUTPUT_NAMES.iter().map(|s| s.to_string()).collect(),
    )?;
    let mut quarantined = Vec::new();
    for (i, row) in rows.into_iter().enumerate() {
        match row {
            Some((x, y)) => ds.push(Sample::new(x, y))?,
            None => quarantined.push(quarantine_id(i)),
        }
    }
    let summary = FaultSummary {
        dropouts: dropouts.into_inner(),
        stalls: stalls.into_inner(),
        truncations: truncations.into_inner(),
        spikes: spikes.into_inner(),
        quarantined,
    };
    Ok((ds, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_design;

    fn servers(n: usize) -> Vec<ServerConfig> {
        (0..n)
            .map(|i| {
                ServerConfig::builder()
                    .injection_rate(100.0 + 50.0 * i as f64)
                    .default_threads(8)
                    .mfg_threads(8)
                    .web_threads(8)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn parse_full_and_partial_profiles() {
        let p: FaultProfile =
            "dropout=0.1, spike=0.05, spike_scale=0.5, truncate=0.2, truncate_frac=0.25, stall=0.02"
                .parse()
                .unwrap();
        assert_eq!(p.sample_dropout, 0.1);
        assert_eq!(p.noise_spike_prob, 0.05);
        assert_eq!(p.noise_spike_scale, 0.5);
        assert_eq!(p.truncate_prob, 0.2);
        assert_eq!(p.truncate_frac, 0.25);
        assert_eq!(p.stall_prob, 0.02);

        let partial: FaultProfile = "dropout=0.3".parse().unwrap();
        assert_eq!(partial.sample_dropout, 0.3);
        assert_eq!(partial.truncate_frac, 1.0);

        let empty: FaultProfile = "".parse().unwrap();
        assert!(empty.is_none());
        assert_eq!(empty, FaultProfile::none());
        assert_eq!(FaultProfile::default(), FaultProfile::none());
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            "dropout",
            "dropout=x",
            "dropout=1.5",
            "dropout=-0.1",
            "mystery=0.5",
            "truncate_frac=0.0",
            "truncate_frac=1.5",
            "spike_scale=-1",
            "spike_scale=NaN",
        ] {
            let err = bad.parse::<FaultProfile>().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidFaultProfile { .. }),
                "`{bad}` -> {err}"
            );
        }
    }

    #[test]
    fn none_profile_matches_clean_run_design() {
        let configs = servers(3);
        let clean = run_design(&configs, 5, 3.0, 0.5).unwrap();
        let (faulty, summary) =
            run_design_faulty(&configs, 5, 3.0, 0.5, FaultProfile::none(), 2).unwrap();
        assert_eq!(clean, faulty);
        assert!(summary.is_clean());
        assert!(summary.quarantined.is_empty());
    }

    #[test]
    fn certain_dropout_quarantines_every_row() {
        let configs = servers(2);
        let profile: FaultProfile = "dropout=1.0".parse().unwrap();
        let (ds, summary) = run_design_faulty(&configs, 1, 3.0, 0.5, profile, 2).unwrap();
        assert!(ds.is_empty());
        assert_eq!(summary.quarantined, vec![0, 1]);
        // Every attempt (initial + 2 retries) on both rows dropped.
        assert_eq!(summary.dropouts, 6);
    }

    #[test]
    fn certain_stall_is_counted_separately() {
        let configs = servers(1);
        let profile: FaultProfile = "stall=1.0".parse().unwrap();
        let (ds, summary) = run_design_faulty(&configs, 1, 3.0, 0.5, profile, 0).unwrap();
        assert!(ds.is_empty());
        assert_eq!(summary.stalls, 1);
        assert_eq!(summary.dropouts, 0);
        assert_eq!(summary.quarantined, vec![0]);
        let text = summary.to_string();
        assert!(text.contains("1 stalls") && text.contains("1 quarantined"));
    }

    #[test]
    fn retries_recover_intermittent_dropouts() {
        let configs = servers(4);
        let profile: FaultProfile = "dropout=0.5".parse().unwrap();
        let (ds, summary) = run_design_faulty(&configs, 42, 3.0, 0.5, profile, 10).unwrap();
        assert_eq!(ds.len(), 4, "quarantined: {:?}", summary.quarantined);
        assert!(summary.dropouts > 0);
        // Recovered rows carry clean measurements (no degradation faults).
        let clean = run_design(&configs, 42, 3.0, 0.5).unwrap();
        assert_eq!(ds, clean);
    }

    #[test]
    fn truncation_degrades_but_keeps_rows() {
        let configs = servers(2);
        let profile: FaultProfile = "truncate=1.0,truncate_frac=0.5".parse().unwrap();
        let (ds, summary) = run_design_faulty(&configs, 9, 4.0, 1.0, profile, 0).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(summary.truncations, 2);
        let clean = run_design(&configs, 9, 4.0, 1.0).unwrap();
        assert_ne!(ds, clean, "truncated window must change the measurement");
    }

    #[test]
    fn spikes_only_inflate_indicators() {
        let configs = servers(2);
        let profile: FaultProfile = "spike=1.0,spike_scale=2.0".parse().unwrap();
        let (ds, summary) = run_design_faulty(&configs, 9, 3.0, 0.5, profile, 0).unwrap();
        let clean = run_design(&configs, 9, 3.0, 0.5).unwrap();
        assert_eq!(summary.spikes, 2 * OUTPUT_NAMES.len());
        let mut strictly_larger = 0;
        for (noisy, base) in ds.samples().iter().zip(clean.samples()) {
            for (n, b) in noisy.y().iter().zip(base.y()) {
                assert!(n >= b, "spike must not shrink an indicator");
                if n > b {
                    strictly_larger += 1;
                }
            }
        }
        assert!(strictly_larger > 0);
    }

    #[test]
    fn faulty_campaign_is_deterministic_across_worker_counts() {
        let configs = servers(3);
        let profile: FaultProfile =
            "dropout=0.4,spike=0.3,spike_scale=1.0,truncate=0.3,truncate_frac=0.5"
                .parse()
                .unwrap();
        let serial = run_design_faulty_jobs(&configs, 13, 3.0, 0.5, profile, 3, 1).unwrap();
        let parallel = run_design_faulty_jobs(&configs, 13, 3.0, 0.5, profile, 3, 4).unwrap();
        assert_eq!(serial.0, parallel.0);
        assert_eq!(serial.1, parallel.1);
    }
}
