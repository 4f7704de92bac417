//! Closed-form M/M/c queueing approximations.
//!
//! Used to validate the discrete-event engine against textbook queueing
//! theory (on idealized hardware the middle-tier pools *are* M/M/c
//! queues), and available to users as a quick analytic sanity check
//! before running a full simulation.

use crate::config::{DbModel, HardwareModel, ServerConfig, WorkloadSpec};
use crate::transaction::{DomainQueue, TransactionKind};
use crate::SimError;

/// Erlang-C formula: the probability that an arriving customer must wait
/// in an M/M/c queue with arrival rate `lambda`, per-server service rate
/// `mu` and `c` servers.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if any rate is non-positive,
/// `c == 0`, or the queue is unstable (`lambda >= c·mu`).
///
/// # Examples
///
/// ```
/// use wlc_sim::analytic::erlang_c;
///
/// // M/M/1 at 50% load: P(wait) = rho = 0.5.
/// let p = erlang_c(0.5, 1.0, 1)?;
/// assert!((p - 0.5).abs() < 1e-12);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn erlang_c(lambda: f64, mu: f64, c: u32) -> Result<f64, SimError> {
    validate(lambda, mu, c)?;
    let a = lambda / mu; // offered load in Erlangs
    let c_f = c as f64;
    let rho = a / c_f;

    // Sum_{k=0}^{c-1} a^k / k!, computed incrementally.
    let mut term = 1.0; // a^0 / 0!
    let mut sum = 0.0;
    for k in 0..c {
        sum += term;
        term *= a / (k as f64 + 1.0);
    }
    // term is now a^c / c!.
    let tail = term / (1.0 - rho);
    Ok(tail / (sum + tail))
}

/// Mean waiting time (time in queue, excluding service) for an M/M/c
/// queue.
///
/// # Errors
///
/// As for [`erlang_c`].
pub fn mmc_mean_wait(lambda: f64, mu: f64, c: u32) -> Result<f64, SimError> {
    let p_wait = erlang_c(lambda, mu, c)?;
    let c_f = c as f64;
    Ok(p_wait / (c_f * mu - lambda))
}

/// Mean response time (wait + service) for an M/M/c queue.
///
/// # Errors
///
/// As for [`erlang_c`].
///
/// # Examples
///
/// ```
/// use wlc_sim::analytic::mmc_mean_response;
///
/// // M/M/1: R = 1 / (mu - lambda).
/// let r = mmc_mean_response(2.0, 5.0, 1)?;
/// assert!((r - 1.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
// wlc-lint: allow(unreferenced-pub, reason = "the engine's mm_c_validation_against_queueing_theory test and crates/sim/tests/proptests.rs compare the simulator with it")
pub fn mmc_mean_response(lambda: f64, mu: f64, c: u32) -> Result<f64, SimError> {
    Ok(mmc_mean_wait(lambda, mu, c)? + 1.0 / mu)
}

fn validate(lambda: f64, mu: f64, c: u32) -> Result<(), SimError> {
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(SimError::InvalidConfig {
            name: "lambda",
            reason: "must be positive and finite",
        });
    }
    if !(mu.is_finite() && mu > 0.0) {
        return Err(SimError::InvalidConfig {
            name: "mu",
            reason: "must be positive and finite",
        });
    }
    if c == 0 {
        return Err(SimError::InvalidConfig {
            name: "c",
            reason: "must be at least 1",
        });
    }
    if lambda >= c as f64 * mu {
        return Err(SimError::InvalidConfig {
            name: "lambda",
            reason: "queue is unstable: lambda must be below c * mu",
        });
    }
    Ok(())
}

/// Analytic (open queueing network) approximation of the 3-tier system's
/// per-class mean response times.
///
/// Each pool is treated as an independent M/M/c queue with the
/// class-weighted mean service time, including the *static* service
/// inflations of the hardware model (pool-size and memory overheads) but
/// not the dynamic CPU-contention coupling — so this is a light-to-
/// moderate-load approximation, useful as a sanity check and a fast
/// first-cut capacity estimate before running the simulator.
///
/// Returns mean response times in the indicator order of
/// [`TransactionKind::ALL`].
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] if any pool is analytically
/// unstable at the offered load (`lambda >= c·mu`), naming the pool.
///
/// # Examples
///
/// ```
/// use wlc_sim::analytic::approximate_response_times;
/// use wlc_sim::{DbModel, HardwareModel, ServerConfig, WorkloadSpec};
///
/// let config = ServerConfig::builder()
///     .injection_rate(200.0)
///     .default_threads(10)
///     .mfg_threads(16)
///     .web_threads(10)
///     .build()?;
/// let rts = approximate_response_times(
///     &config,
///     &WorkloadSpec::default(),
///     &HardwareModel::default(),
///     &DbModel::default(),
/// )?;
/// assert!(rts.iter().all(|&rt| rt > 0.0 && rt < 0.2));
/// # Ok::<(), wlc_sim::SimError>(())
/// ```
pub fn approximate_response_times(
    server: &ServerConfig,
    workload: &WorkloadSpec,
    hardware: &HardwareModel,
    db: &DbModel,
) -> Result<[f64; 4], SimError> {
    let rate = server.injection_rate();
    let memory_factor = 1.0 + hardware.memory_overhead_per_thread * server.total_threads() as f64;
    let pool_factor =
        |threads: u32| (1.0 + hardware.pool_size_overhead * threads as f64) * memory_factor;
    let web_factor = pool_factor(server.web_threads());
    let mfg_factor = pool_factor(server.mfg_threads());
    let default_factor = pool_factor(server.default_threads());

    // Class-weighted mean service time and arrival rate per pool.
    let mut web_demand = 0.0;
    let mut mfg_demand = 0.0;
    let mut mfg_prob = 0.0;
    let mut default_demand = 0.0;
    let mut default_prob = 0.0;
    let mut db_demand = 0.0;
    for class in workload.classes() {
        let p = class.probability();
        web_demand += p * class.demands().web.mean() * web_factor;
        db_demand += p * class.demands().db.mean();
        match class.demands().domain_queue {
            DomainQueue::Mfg => {
                mfg_prob += p;
                mfg_demand += p * class.demands().domain.mean() * mfg_factor;
            }
            DomainQueue::Default => {
                default_prob += p;
                default_demand += p * class.demands().domain.mean() * default_factor;
            }
        }
    }

    // Mean waiting time of each pool as an aggregate M/M/c queue.
    let pool_wait = |lambda: f64,
                     mean_service: f64,
                     servers: u32,
                     name: &'static str|
     -> Result<f64, SimError> {
        if lambda <= 0.0 || mean_service <= 0.0 {
            return Ok(0.0);
        }
        let mu = 1.0 / mean_service;
        mmc_mean_wait(lambda, mu, servers).map_err(|_| SimError::InvalidConfig {
            name,
            reason: "pool is analytically unstable at this load",
        })
    };
    let web_wait = pool_wait(rate, web_demand, server.web_threads(), "web_threads")?;
    let mfg_wait = pool_wait(
        rate * mfg_prob,
        if mfg_prob > 0.0 {
            mfg_demand / mfg_prob
        } else {
            0.0
        },
        server.mfg_threads(),
        "mfg_threads",
    )?;
    let default_wait = pool_wait(
        rate * default_prob,
        if default_prob > 0.0 {
            default_demand / default_prob
        } else {
            0.0
        },
        server.default_threads(),
        "default_threads",
    )?;
    let db_wait = pool_wait(rate, db_demand, db.connections, "connections")?;

    let mut out = [0.0; 4];
    for &kind in &TransactionKind::ALL {
        let class = workload.class(kind);
        let (domain_wait, domain_factor) = match class.demands().domain_queue {
            DomainQueue::Mfg => (mfg_wait, mfg_factor),
            DomainQueue::Default => (default_wait, default_factor),
        };
        out[kind.index()] = web_wait
            + class.demands().web.mean() * web_factor
            + domain_wait
            + class.demands().domain.mean() * domain_factor
            + db_wait
            + class.demands().db.mean();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_reduces_to_textbook() {
        // M/M/1: W = rho / (mu - lambda), R = 1/(mu - lambda).
        let lambda = 3.0;
        let mu = 5.0;
        let rho: f64 = lambda / mu;
        assert!((erlang_c(lambda, mu, 1).unwrap() - rho).abs() < 1e-12);
        let w = mmc_mean_wait(lambda, mu, 1).unwrap();
        assert!((w - rho / (mu - lambda)).abs() < 1e-12);
        let r = mmc_mean_response(lambda, mu, 1).unwrap();
        assert!((r - 1.0 / (mu - lambda)).abs() < 1e-12);
    }

    #[test]
    fn known_erlang_c_value() {
        // Classic call-center example: a = 8 Erlangs, c = 10 servers.
        // Erlang-C ≈ 0.4092 (standard tables).
        let p = erlang_c(8.0, 1.0, 10).unwrap();
        assert!((p - 0.4092).abs() < 5e-4, "{p}");
    }

    #[test]
    fn more_servers_less_waiting() {
        let lambda = 9.0;
        let mu = 1.0;
        let w10 = mmc_mean_wait(lambda, mu, 10).unwrap();
        let w12 = mmc_mean_wait(lambda, mu, 12).unwrap();
        let w20 = mmc_mean_wait(lambda, mu, 20).unwrap();
        assert!(w10 > w12 && w12 > w20);
        assert!(w20 < 1e-3);
    }

    #[test]
    fn instability_rejected() {
        assert!(erlang_c(10.0, 1.0, 10).is_err());
        assert!(erlang_c(11.0, 1.0, 10).is_err());
        assert!(erlang_c(9.99, 1.0, 10).is_ok());
    }

    #[test]
    fn parameter_validation() {
        assert!(erlang_c(0.0, 1.0, 1).is_err());
        assert!(erlang_c(1.0, 0.0, 2).is_err());
        assert!(erlang_c(1.0, 1.0, 0).is_err());
        assert!(erlang_c(f64::NAN, 1.0, 1).is_err());
    }

    #[test]
    fn approximation_tracks_simulation_at_light_load() {
        use crate::{Simulation, TransactionKind};
        let config = ServerConfig::builder()
            .injection_rate(250.0)
            .default_threads(12)
            .mfg_threads(16)
            .web_threads(12)
            .build()
            .unwrap();
        let analytic = approximate_response_times(
            &config,
            &WorkloadSpec::default(),
            &HardwareModel::default(),
            &DbModel::default(),
        )
        .unwrap();
        let sim = Simulation::new(config)
            .seed(3)
            .duration_secs(20.0)
            .warmup_secs(4.0)
            .run()
            .unwrap();
        for &kind in &TransactionKind::ALL {
            let a = analytic[kind.index()];
            let s = sim.mean_response_time(kind);
            let rel = (a - s).abs() / s;
            assert!(
                rel < 0.25,
                "{kind}: analytic {a:.4} vs sim {s:.4} ({rel:.2})"
            );
        }
    }

    #[test]
    fn approximation_detects_unstable_pool() {
        let config = ServerConfig::builder()
            .injection_rate(600.0)
            .default_threads(2) // hopeless at 600/s
            .mfg_threads(16)
            .web_threads(12)
            .build()
            .unwrap();
        let result = approximate_response_times(
            &config,
            &WorkloadSpec::default(),
            &HardwareModel::default(),
            &DbModel::default(),
        );
        assert!(matches!(
            result,
            Err(SimError::InvalidConfig {
                name: "default_threads",
                ..
            })
        ));
    }

    #[test]
    fn approximation_orders_classes_by_demand() {
        let config = ServerConfig::builder()
            .injection_rate(200.0)
            .default_threads(10)
            .mfg_threads(16)
            .web_threads(10)
            .build()
            .unwrap();
        let rts = approximate_response_times(
            &config,
            &WorkloadSpec::default(),
            &HardwareModel::default(),
            &DbModel::default(),
        )
        .unwrap();
        // Manufacturing (8+17+8 ms demand) is slower than browse
        // (9+4.5+14 ms) once pool-size factors apply to mfg's big stage.
        assert!(rts[TransactionKind::Manufacturing.index()] > rts[3]);
    }

    #[test]
    fn wait_grows_explosively_near_saturation() {
        let mu = 1.0;
        let c = 4;
        let w_80 = mmc_mean_wait(3.2, mu, c).unwrap();
        let w_99 = mmc_mean_wait(3.96, mu, c).unwrap();
        assert!(w_99 > 10.0 * w_80);
    }
}
