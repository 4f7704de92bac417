use std::fmt;

use wlc_math::stats::OnlineStats;

use crate::transaction::TransactionKind;

/// Per-pool mean utilizations over the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct PoolUtilization {
    /// `web` queue utilization in `[0, 1]`.
    pub web: f64,
    /// `mfg` queue utilization in `[0, 1]`.
    pub mfg: f64,
    /// `default` queue utilization in `[0, 1]`.
    pub default_queue: f64,
    /// Database connection-pool utilization in `[0, 1]`.
    pub db: f64,
}

/// Steady-state measurement of one simulated configuration.
///
/// Matches the paper's five performance indicators: four per-class mean
/// response times plus the effective throughput (transactions per second
/// that completed *within their class's response-time constraint*).
///
/// # Examples
///
/// ```
/// use wlc_sim::{ServerConfig, Simulation, TransactionKind};
///
/// let config = ServerConfig::builder()
///     .injection_rate(200.0)
///     .default_threads(8)
///     .mfg_threads(8)
///     .web_threads(8)
///     .build()?;
/// let m = Simulation::new(config).seed(7).duration_secs(4.0).warmup_secs(1.0).run()?;
/// let indicators = m.indicators();
/// assert_eq!(indicators.len(), 5);
/// assert_eq!(indicators[4], m.throughput());
/// assert!(m.completion_rate() > 0.5);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    response_stats: [OnlineStats; 4],
    /// Exact p95 response times per class (None when no completions).
    p95: [Option<f64>; 4],
    /// Fallback response time used for classes with no completions in the
    /// measurement window (the window length — a saturation sentinel).
    saturated_rt: f64,
    injected: u64,
    completed: [u64; 4],
    effective: [u64; 4],
    window_secs: f64,
    utilization: PoolUtilization,
}

impl Measurement {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        response_stats: [OnlineStats; 4],
        p95: [Option<f64>; 4],
        saturated_rt: f64,
        injected: u64,
        completed: [u64; 4],
        effective: [u64; 4],
        window_secs: f64,
        utilization: PoolUtilization,
    ) -> Self {
        Measurement {
            response_stats,
            p95,
            saturated_rt,
            injected,
            completed,
            effective,
            window_secs,
            utilization,
        }
    }

    /// Mean response time (seconds) of `kind` over the measurement window.
    ///
    /// If no transaction of that class completed in the window (a
    /// hopelessly saturated configuration), the window length is returned
    /// as a pessimistic sentinel so the value is still usable as training
    /// data.
    pub fn mean_response_time(&self, kind: TransactionKind) -> f64 {
        let s = &self.response_stats[kind.index()];
        if s.count() == 0 {
            self.saturated_rt
        } else {
            s.mean()
        }
    }

    /// Response-time standard deviation of `kind` (0.0 when no samples).
    // wlc-lint: allow(unreferenced-pub, reason = "crates/sim/tests/golden.rs pins its bits")
    pub fn response_time_std(&self, kind: TransactionKind) -> f64 {
        self.response_stats[kind.index()].std_dev()
    }

    /// 95th-percentile response time of `kind` over the measurement
    /// window, interpolated between closest ranks by
    /// [`wlc_math::stats::percentile`] (sentinel when the class had no
    /// completions in the window).
    pub fn p95_response_time(&self, kind: TransactionKind) -> f64 {
        self.p95[kind.index()].unwrap_or(self.saturated_rt)
    }

    /// Largest observed response time of `kind` (sentinel when none).
    // wlc-lint: allow(unreferenced-pub, reason = "crates/sim/tests/golden.rs pins its bits")
    pub fn max_response_time(&self, kind: TransactionKind) -> f64 {
        let s = &self.response_stats[kind.index()];
        if s.count() == 0 {
            self.saturated_rt
        } else {
            s.max()
        }
    }

    /// Effective throughput: transactions per second completing within
    /// their class's response-time constraint.
    pub fn throughput(&self) -> f64 {
        self.effective.iter().sum::<u64>() as f64 / self.window_secs
    }

    /// Total completion throughput (ignoring constraints).
    pub fn total_throughput(&self) -> f64 {
        self.completed.iter().sum::<u64>() as f64 / self.window_secs
    }

    /// Number of transactions injected over the whole run (including
    /// warmup).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Completions of `kind` within the measurement window.
    pub fn completions(&self, kind: TransactionKind) -> u64 {
        self.completed[kind.index()]
    }

    /// Constraint-satisfying completions of `kind` within the window.
    pub fn effective_completions(&self, kind: TransactionKind) -> u64 {
        self.effective[kind.index()]
    }

    /// Fraction of in-window completions meeting their constraint.
    // wlc-lint: allow(unreferenced-pub, reason = "crates/sim/tests/golden.rs pins its bits")
    pub fn completion_rate(&self) -> f64 {
        let total: u64 = self.completed.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.effective.iter().sum::<u64>() as f64 / total as f64
    }

    /// Measurement window length in seconds (duration − warmup).
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Pool utilizations.
    pub fn utilization(&self) -> PoolUtilization {
        self.utilization
    }

    /// The paper's five performance indicators, in order:
    /// `[manufacturing_rt, dealer_purchase_rt, dealer_manage_rt,
    /// dealer_browse_autos_rt, effective_throughput]`.
    pub fn indicators(&self) -> Vec<f64> {
        let mut v: Vec<f64> = TransactionKind::ALL
            .iter()
            .map(|&k| self.mean_response_time(k))
            .collect();
        v.push(self.throughput());
        v
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "measurement over {:.1}s window:", self.window_secs)?;
        for &kind in &TransactionKind::ALL {
            writeln!(
                f,
                "  {:<22} rt = {:>9.2} ms  ({} completions, {} effective)",
                kind.name(),
                self.mean_response_time(kind) * 1e3,
                self.completions(kind),
                self.effective_completions(kind)
            )?;
        }
        write!(
            f,
            "  throughput = {:.1}/s effective ({:.1}/s total), util web/mfg/def/db = {:.0}%/{:.0}%/{:.0}%/{:.0}%",
            self.throughput(),
            self.total_throughput(),
            self.utilization.web * 100.0,
            self.utilization.mfg * 100.0,
            self.utilization.default_queue * 100.0,
            self.utilization.db * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement() -> Measurement {
        let mut stats = [OnlineStats::new(); 4];
        for (i, s) in stats.iter_mut().enumerate() {
            if i != 3 {
                s.push(0.1 * (i + 1) as f64);
                s.push(0.3 * (i + 1) as f64);
            }
            // index 3 (browse) left empty to exercise the sentinel.
        }
        Measurement::new(
            stats,
            [Some(0.5), Some(0.9), Some(0.7), None],
            25.0,
            1000,
            [100, 200, 150, 0],
            [90, 180, 140, 0],
            25.0,
            PoolUtilization {
                web: 0.5,
                mfg: 0.25,
                default_queue: 0.6,
                db: 0.1,
            },
        )
    }

    #[test]
    fn mean_response_times() {
        let m = sample_measurement();
        assert!((m.mean_response_time(TransactionKind::Manufacturing) - 0.2).abs() < 1e-12);
        assert!((m.mean_response_time(TransactionKind::DealerPurchase) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn saturated_class_uses_sentinel() {
        let m = sample_measurement();
        assert_eq!(
            m.mean_response_time(TransactionKind::DealerBrowseAutos),
            25.0
        );
        assert_eq!(
            m.max_response_time(TransactionKind::DealerBrowseAutos),
            25.0
        );
    }

    #[test]
    fn throughput_counts_effective_only() {
        let m = sample_measurement();
        assert!((m.throughput() - 410.0 / 25.0).abs() < 1e-12);
        assert!((m.total_throughput() - 450.0 / 25.0).abs() < 1e-12);
        assert!((m.completion_rate() - 410.0 / 450.0).abs() < 1e-12);
    }

    #[test]
    fn indicators_order_and_length() {
        let m = sample_measurement();
        let v = m.indicators();
        assert_eq!(v.len(), 5);
        assert_eq!(v[0], m.mean_response_time(TransactionKind::Manufacturing));
        assert_eq!(v[3], 25.0);
        assert_eq!(v[4], m.throughput());
    }

    #[test]
    fn p95_accessor_and_sentinel() {
        let m = sample_measurement();
        assert_eq!(m.p95_response_time(TransactionKind::Manufacturing), 0.5);
        // No completions for browse: sentinel.
        assert_eq!(
            m.p95_response_time(TransactionKind::DealerBrowseAutos),
            25.0
        );
    }

    #[test]
    fn accessors() {
        let m = sample_measurement();
        assert_eq!(m.injected(), 1000);
        assert_eq!(m.completions(TransactionKind::DealerManage), 150);
        assert_eq!(m.effective_completions(TransactionKind::DealerManage), 140);
        assert_eq!(m.window_secs(), 25.0);
        assert_eq!(m.utilization().web, 0.5);
    }

    #[test]
    fn display_contains_key_numbers() {
        let m = sample_measurement();
        let s = m.to_string();
        assert!(s.contains("manufacturing"));
        assert!(s.contains("throughput"));
    }

    #[test]
    fn completion_rate_zero_when_nothing_completed() {
        let m = Measurement::new(
            [OnlineStats::new(); 4],
            [None; 4],
            10.0,
            100,
            [0; 4],
            [0; 4],
            10.0,
            PoolUtilization {
                web: 1.0,
                mfg: 1.0,
                default_queue: 1.0,
                db: 1.0,
            },
        );
        assert_eq!(m.completion_rate(), 0.0);
        assert_eq!(m.throughput(), 0.0);
    }
}
