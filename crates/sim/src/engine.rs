//! The discrete-event engine: arrival generation, stage routing, the
//! contention model and metric collection.

use wlc_math::rng::{Seed, WeightedIndex, Xoshiro256};
use wlc_math::stats::{self, OnlineStats};

use crate::config::{ArrivalProcess, DbModel, HardwareModel, ServerConfig, WorkloadSpec};
use crate::db::db_service_time;
use crate::des::{EventQueue, SimTime};
use crate::metrics::{Measurement, PoolUtilization};
use crate::threadpool::{Pool, Txn};
use crate::transaction::{DomainQueue, TransactionKind};
use crate::SimError;

/// Middle-tier queue identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueueId {
    Web,
    Mfg,
    Default,
}

impl QueueId {
    fn index(self) -> usize {
        match self {
            QueueId::Web => 0,
            QueueId::Mfg => 1,
            QueueId::Default => 2,
        }
    }
}

/// An event; a finished stage carries its transaction's fields flat, so
/// an `Event` stays 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The next driver arrival.
    Arrival,
    /// The bursty driver toggles between its normal and burst phases.
    PhaseSwitch,
    /// A middle-tier stage finished on `queue` for the transaction of
    /// class `kind` that arrived at `arrival`.
    PoolDone {
        queue: QueueId,
        kind: TransactionKind,
        arrival: SimTime,
    },
    /// The database stage finished for that transaction.
    DbDone {
        kind: TransactionKind,
        arrival: SimTime,
    },
}

/// Complete runtime parameters of one simulation run.
#[derive(Debug, Clone)]
pub(crate) struct EngineConfig {
    pub server: ServerConfig,
    pub hardware: HardwareModel,
    pub db: DbModel,
    pub workload: WorkloadSpec,
    pub arrivals: ArrivalProcess,
    pub duration: SimTime,
    pub warmup: SimTime,
    pub seed: Seed,
}

pub(crate) struct Engine {
    cfg: EngineConfig,
    clock: SimTime,
    events: EventQueue<Event>,
    rng: Xoshiro256,
    /// Middle-tier pools indexed by [`QueueId::index`].
    pools: [Pool; 3],
    /// Busy threads across the three middle-tier pools.
    middle_busy: u32,
    db: Pool,
    // Metrics.
    response_stats: [OnlineStats; 4],
    /// Measurement-window response times per class, for the exact p95.
    response_times: [Vec<f64>; 4],
    injected: u64,
    completed: [u64; 4],
    effective: [u64; 4],
    mix: WeightedIndex<[f64; 4]>,
    /// Constant service-time inflation from configured thread footprint.
    memory_factor: f64,
    /// Whether the bursty driver is currently in its burst phase.
    in_burst: bool,
    /// Arrival rate of the current phase (= injection rate for Poisson).
    current_rate: f64,
}

impl Engine {
    pub(crate) fn new(cfg: EngineConfig) -> Result<Self, SimError> {
        cfg.hardware.validate()?;
        cfg.db.validate()?;
        cfg.arrivals.validate()?;
        if cfg.duration <= cfg.warmup {
            return Err(SimError::InvalidConfig {
                name: "duration",
                reason: "must exceed the warmup period",
            });
        }
        let pools = [
            Pool::new(cfg.server.web_threads()),
            Pool::new(cfg.server.mfg_threads()),
            Pool::new(cfg.server.default_threads()),
        ];
        let db = Pool::new(cfg.db.connections);
        let rng = Xoshiro256::from_seed(cfg.seed);
        let mix = WeightedIndex::new(cfg.workload.probabilities())?;
        let memory_factor =
            1.0 + cfg.hardware.memory_overhead_per_thread * cfg.server.total_threads() as f64;
        let mut engine = Engine {
            cfg,
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            rng,
            pools,
            middle_busy: 0,
            db,
            response_stats: [OnlineStats::new(); 4],
            response_times: Default::default(),
            injected: 0,
            completed: [0; 4],
            effective: [0; 4],
            mix,
            memory_factor,
            in_burst: false,
            current_rate: 0.0, // placeholder; set from the phase below
        };
        engine.current_rate = engine.phase_rate();
        Ok(engine)
    }

    /// The arrival rate of the current phase. For the bursty process the
    /// two phase rates are normalized so their time-weighted average is
    /// the configured injection rate.
    fn phase_rate(&self) -> f64 {
        let target = self.cfg.server.injection_rate();
        match self.cfg.arrivals {
            ArrivalProcess::Poisson => target,
            ArrivalProcess::Bursty {
                burst_factor,
                mean_normal_secs,
                mean_burst_secs,
            } => {
                let p_burst = mean_burst_secs / (mean_normal_secs + mean_burst_secs);
                let normal_rate = target / (1.0 - p_burst + burst_factor * p_burst);
                if self.in_burst {
                    normal_rate * burst_factor
                } else {
                    normal_rate
                }
            }
        }
    }

    /// Runs the simulation to completion and produces the measurement.
    pub(crate) fn run(mut self) -> Result<Measurement, SimError> {
        // Prime the arrival stream (and the phase process if bursty).
        let first_gap = self.next_arrival_gap();
        self.events.schedule_arrival(first_gap, Event::Arrival);
        if let ArrivalProcess::Bursty {
            mean_normal_secs, ..
        } = self.cfg.arrivals
        {
            let switch = self
                .rng
                .next_exponential(1.0 / mean_normal_secs)
                .expect("validated phase duration");
            self.events
                .schedule(SimTime::from_secs(switch), Event::PhaseSwitch);
        }

        let end = self.cfg.duration;
        while let Some((time, event)) = self.events.pop() {
            if time > end {
                break;
            }
            self.clock = time;
            match event {
                Event::Arrival => self.handle_arrival(),
                Event::PhaseSwitch => self.handle_phase_switch(),
                Event::PoolDone {
                    queue,
                    kind,
                    arrival,
                } => self.handle_pool_done(queue, Txn { kind, arrival }),
                Event::DbDone { kind, arrival } => self.handle_db_done(Txn { kind, arrival }),
            }
        }
        self.clock = end;

        let window = (self.cfg.duration - self.cfg.warmup).as_secs();
        if self.completed.iter().sum::<u64>() == 0 {
            return Err(SimError::NoCompletions);
        }
        let utilization = PoolUtilization {
            web: self.pools[QueueId::Web.index()].utilization(end),
            mfg: self.pools[QueueId::Mfg.index()].utilization(end),
            default_queue: self.pools[QueueId::Default.index()].utilization(end),
            db: self.db.utilization(end),
        };
        // A class with no completions has no samples: `None`, the sentinel.
        let p95 = self
            .response_times
            .each_ref()
            .map(|samples| stats::percentile(samples, 95.0).ok());
        Ok(Measurement::new(
            self.response_stats,
            p95,
            window,
            self.injected,
            self.completed,
            self.effective,
            window,
            utilization,
        ))
    }

    fn next_arrival_gap(&mut self) -> SimTime {
        let gap = self
            .rng
            .next_exponential(self.current_rate)
            .expect("phase rate is positive by construction");
        SimTime::from_secs(gap)
    }

    /// Toggles the bursty driver's phase and schedules the next toggle.
    /// The already-scheduled next arrival keeps its old gap (a standard,
    /// slight approximation for modulated Poisson generators).
    fn handle_phase_switch(&mut self) {
        if let ArrivalProcess::Bursty {
            mean_normal_secs,
            mean_burst_secs,
            ..
        } = self.cfg.arrivals
        {
            self.in_burst = !self.in_burst;
            self.current_rate = self.phase_rate();
            let mean = if self.in_burst {
                mean_burst_secs
            } else {
                mean_normal_secs
            };
            let gap = self
                .rng
                .next_exponential(1.0 / mean)
                .expect("validated phase duration");
            let next = self.clock + SimTime::from_secs(gap);
            if next <= self.cfg.duration {
                self.events.schedule(next, Event::PhaseSwitch);
            }
        }
    }

    fn handle_arrival(&mut self) {
        // Schedule the next arrival first (open-loop driver).
        let gap = self.next_arrival_gap();
        let next = self.clock + gap;
        if next <= self.cfg.duration {
            self.events.schedule_arrival(next, Event::Arrival);
        }

        // Inject a new transaction of a mix-weighted random kind.
        let txn = Txn {
            kind: TransactionKind::ALL[self.mix.pick(&mut self.rng)],
            arrival: self.clock,
        };
        self.injected += 1;
        self.submit_to_pool(QueueId::Web, txn);
    }

    /// Sends `txn` to a middle-tier pool: starts service immediately if a
    /// thread is free, otherwise queues it.
    fn submit_to_pool(&mut self, queue: QueueId, txn: Txn) {
        if self.pools[queue.index()].try_acquire(self.clock) {
            self.middle_busy += 1;
            self.start_pool_service(queue, txn);
        } else {
            self.pools[queue.index()].enqueue(txn);
        }
    }

    /// Draws the stage demand, applies the contention model and schedules
    /// the completion event. The calling pool has already allocated a
    /// thread for `txn`.
    fn start_pool_service(&mut self, queue: QueueId, txn: Txn) {
        let demands = *self.cfg.workload.class(txn.kind).demands();
        let base = match queue {
            QueueId::Web => demands.web.sample(&mut self.rng),
            QueueId::Mfg | QueueId::Default => demands.domain.sample(&mut self.rng),
        };
        let service = base * self.slowdown(queue);
        let done = self.clock + SimTime::from_secs(service);
        self.events.schedule(
            done,
            Event::PoolDone {
                queue,
                kind: txn.kind,
                arrival: txn.arrival,
            },
        );
    }

    /// The contention model (see [`HardwareModel`]): processor-sharing
    /// stretch plus context-switch penalty once runnable threads exceed
    /// the cores, per-pool lock contention, and the constant memory
    /// footprint factor. This is the source of the paper's "hills" and
    /// "valleys": too few threads queue, too many thrash.
    fn slowdown(&self, queue: QueueId) -> f64 {
        let hw = &self.cfg.hardware;
        debug_assert_eq!(
            self.middle_busy,
            self.pools.iter().map(Pool::busy).sum::<u32>()
        );
        // A sum of small integers is exact, so this is the f64 the
        // pools' busy counts would sum to.
        let busy_total = self.middle_busy as f64;
        let mut s = 1.0;
        if busy_total > hw.effective_cores {
            let over = busy_total - hw.effective_cores;
            s *= (busy_total / hw.effective_cores) * (1.0 + hw.context_switch_overhead * over);
        }
        let pool = &self.pools[queue.index()];
        s *= 1.0 + hw.lock_overhead * pool.busy().saturating_sub(1) as f64;
        s *= 1.0 + hw.pool_size_overhead * pool.servers() as f64;
        s *= self.memory_factor;
        s.min(hw.max_slowdown)
    }

    fn handle_pool_done(&mut self, queue: QueueId, txn: Txn) {
        // Route the finished transaction onward.
        match queue {
            QueueId::Web => {
                let domain = self.cfg.workload.class(txn.kind).demands().domain_queue;
                let target = match domain {
                    DomainQueue::Mfg => QueueId::Mfg,
                    DomainQueue::Default => QueueId::Default,
                };
                self.release_and_continue(queue);
                self.submit_to_pool(target, txn);
            }
            QueueId::Mfg | QueueId::Default => {
                self.release_and_continue(queue);
                self.submit_to_db(txn);
            }
        }
    }

    /// Releases a thread on `queue`; if a transaction was waiting it takes
    /// the thread over and its service starts now.
    fn release_and_continue(&mut self, queue: QueueId) {
        match self.pools[queue.index()].release(self.clock) {
            Some(next) => self.start_pool_service(queue, next),
            None => self.middle_busy -= 1,
        }
    }

    fn submit_to_db(&mut self, txn: Txn) {
        if self.db.try_acquire(self.clock) {
            self.start_db_service(txn);
        } else {
            self.db.enqueue(txn);
        }
    }

    fn start_db_service(&mut self, txn: Txn) {
        let base = self
            .cfg
            .workload
            .class(txn.kind)
            .demands()
            .db
            .sample(&mut self.rng);
        let service = db_service_time(&self.cfg.db, base, self.db.busy());
        let done = self.clock + SimTime::from_secs(service);
        self.events.schedule(
            done,
            Event::DbDone {
                kind: txn.kind,
                arrival: txn.arrival,
            },
        );
    }

    fn handle_db_done(&mut self, txn: Txn) {
        if let Some(next) = self.db.release(self.clock) {
            self.start_db_service(next);
        }
        // Transaction complete.
        if self.clock > self.cfg.warmup {
            let rt = (self.clock - txn.arrival).as_secs();
            let idx = txn.kind.index();
            self.response_stats[idx].push(rt);
            self.response_times[idx].push(rt);
            self.completed[idx] += 1;
            let constraint = self.cfg.workload.class(txn.kind).constraint_secs();
            if rt <= constraint {
                self.effective[idx] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_math::distributions::Distribution;

    use crate::transaction::{StageDemands, TransactionClass};

    fn server(rate: f64, default: u32, mfg: u32, web: u32) -> ServerConfig {
        ServerConfig::builder()
            .injection_rate(rate)
            .default_threads(default)
            .mfg_threads(mfg)
            .web_threads(web)
            .build()
            .unwrap()
    }

    fn engine_config(server: ServerConfig, seed: u64) -> EngineConfig {
        EngineConfig {
            server,
            hardware: HardwareModel::default(),
            db: DbModel::default(),
            workload: WorkloadSpec::default(),
            arrivals: ArrivalProcess::Poisson,
            duration: SimTime::from_secs(6.0),
            warmup: SimTime::from_secs(1.0),
            seed: Seed::new(seed),
        }
    }

    fn run(rate: f64, default: u32, mfg: u32, web: u32, seed: u64) -> Measurement {
        Engine::new(engine_config(server(rate, default, mfg, web), seed))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn events_stay_sixteen_bytes() {
        // A finished stage carries its transaction flat: a nested `Txn`
        // would pad `Event` to 24 bytes and every queue entry with it.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn healthy_config_completes_nearly_everything() {
        let m = run(200.0, 10, 10, 10, 1);
        // At 200/s the measurement window sees ~1000 transactions.
        assert!(m.injected() > 800, "injected {}", m.injected());
        // Throughput should be close to the injection rate.
        assert!(
            (m.total_throughput() - 200.0).abs() < 30.0,
            "total throughput {}",
            m.total_throughput()
        );
        // The default constraints are deliberately tight (~1.25x the
        // healthy mean response time) so that effective throughput reacts
        // to contention; a healthy config still satisfies most of them.
        assert!(m.completion_rate() > 0.6, "rate {}", m.completion_rate());
    }

    #[test]
    fn response_times_positive_and_ordered_by_demand() {
        let m = run(200.0, 10, 10, 10, 2);
        for &k in &TransactionKind::ALL {
            let rt = m.mean_response_time(k);
            assert!(rt > 0.0 && rt < 1.0, "{k}: {rt}");
        }
        // Lightly loaded: purchase (8+20+12 ms) is slower than browse
        // (12+6+15 ms) on average demand.
        assert!(
            m.mean_response_time(TransactionKind::DealerPurchase)
                > m.mean_response_time(TransactionKind::DealerBrowseAutos)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(150.0, 8, 8, 8, 7);
        let b = run(150.0, 8, 8, 8, 7);
        let c = run(150.0, 8, 8, 8, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn undersized_web_pool_inflates_all_response_times() {
        // web demand at 400/s is ~3.2 busy threads; 1 thread is hopeless.
        let healthy = run(400.0, 10, 10, 10, 3);
        let starved = run(400.0, 10, 10, 1, 3);
        for &k in &TransactionKind::ALL {
            assert!(
                starved.mean_response_time(k) > 3.0 * healthy.mean_response_time(k),
                "{k}: starved {} vs healthy {}",
                starved.mean_response_time(k),
                healthy.mean_response_time(k)
            );
        }
        assert!(starved.throughput() < healthy.throughput());
    }

    #[test]
    fn undersized_default_pool_spares_manufacturing() {
        // The parallel-slopes mechanism (paper Fig. 4): manufacturing
        // transactions never touch the default queue, so starving it must
        // hurt dealer classes far more than manufacturing.
        let healthy = run(400.0, 10, 10, 10, 4);
        let starved = run(400.0, 1, 10, 10, 4);
        let mfg_ratio = starved.mean_response_time(TransactionKind::Manufacturing)
            / healthy.mean_response_time(TransactionKind::Manufacturing);
        let purchase_ratio = starved.mean_response_time(TransactionKind::DealerPurchase)
            / healthy.mean_response_time(TransactionKind::DealerPurchase);
        assert!(
            purchase_ratio > 5.0 * mfg_ratio,
            "purchase {purchase_ratio} vs mfg {mfg_ratio}"
        );
    }

    #[test]
    fn oversized_pools_are_worse_than_right_sized() {
        // At 560/s the offered CPU load is ~84% of 16 cores. Giving every
        // pool 60 threads lets bursts pile 180 runnable threads onto 16
        // cores — the context-switch/lock overheads must show up.
        let right = run(560.0, 10, 8, 8, 5);
        let bloated = run(560.0, 60, 60, 60, 5);
        let right_rt: f64 = TransactionKind::ALL
            .iter()
            .map(|&k| right.mean_response_time(k))
            .sum();
        let bloated_rt: f64 = TransactionKind::ALL
            .iter()
            .map(|&k| bloated.mean_response_time(k))
            .sum();
        assert!(
            bloated_rt > right_rt,
            "bloated {bloated_rt} vs right {right_rt}"
        );
    }

    #[test]
    fn throughput_scales_with_injection_rate_when_healthy() {
        let lo = run(100.0, 10, 10, 10, 6);
        let hi = run(300.0, 10, 10, 10, 6);
        assert!(hi.throughput() > 2.0 * lo.throughput());
    }

    #[test]
    fn rejects_duration_not_exceeding_warmup() {
        let mut cfg = engine_config(server(100.0, 4, 4, 4), 1);
        cfg.warmup = SimTime::from_secs(10.0);
        assert!(matches!(
            Engine::new(cfg),
            Err(SimError::InvalidConfig {
                name: "duration",
                ..
            })
        ));
    }

    #[test]
    fn utilization_reflects_load() {
        let m = run(400.0, 10, 10, 10, 9);
        let u = m.utilization();
        for (v, name) in [
            (u.web, "web"),
            (u.mfg, "mfg"),
            (u.default_queue, "default"),
            (u.db, "db"),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
        // default queue carries the dealer domain stages: busiest.
        assert!(u.default_queue > u.mfg);
        // DB is not CPU-bound / generously provisioned.
        assert!(u.db < 0.7, "db {}", u.db);
    }

    #[test]
    fn mm_c_validation_against_queueing_theory() {
        // Ideal hardware + zeroed domain/db demands + exponential web
        // service turns the web pool into a textbook M/M/c queue.
        let lambda = 120.0;
        let mean_service = 0.02; // mu = 50/s per server
        let c = 4u32;
        let zero = Distribution::deterministic(0.0).unwrap();
        let exp_web = Distribution::exponential(1.0 / mean_service).unwrap();
        let classes: Vec<TransactionClass> = TransactionKind::ALL
            .iter()
            .map(|&kind| {
                TransactionClass::new(
                    kind,
                    0.25,
                    StageDemands {
                        web: exp_web,
                        domain: zero,
                        domain_queue: DomainQueue::Default,
                        db: zero,
                    },
                    10.0,
                )
                .unwrap()
            })
            .collect();
        let cfg = EngineConfig {
            server: server(lambda, 30, 30, c),
            hardware: HardwareModel::ideal(),
            db: DbModel {
                connections: 100,
                load_factor: 0.0,
            },
            workload: WorkloadSpec::new(classes).unwrap(),
            arrivals: ArrivalProcess::Poisson,
            duration: SimTime::from_secs(80.0),
            warmup: SimTime::from_secs(10.0),
            seed: Seed::new(12),
        };
        let m = Engine::new(cfg).unwrap().run().unwrap();

        let analytic_rt =
            crate::analytic::mmc_mean_response(lambda, 1.0 / mean_service, c).unwrap();
        let mean_rt: f64 = TransactionKind::ALL
            .iter()
            .map(|&k| m.mean_response_time(k))
            .sum::<f64>()
            / 4.0;
        let rel = (mean_rt - analytic_rt).abs() / analytic_rt;
        assert!(
            rel < 0.10,
            "DES {mean_rt:.5}s vs M/M/c {analytic_rt:.5}s (rel {rel:.3})"
        );
    }

    #[test]
    fn p95_exceeds_mean_for_skewed_response_times() {
        // Response times are right-skewed (queueing + exponential DB
        // stages), so the streaming p95 must sit above the mean for every
        // class in a healthy run.
        let m = run(300.0, 10, 16, 10, 41);
        for &kind in &TransactionKind::ALL {
            let mean = m.mean_response_time(kind);
            let p95 = m.p95_response_time(kind);
            assert!(p95 > mean, "{kind}: p95 {p95} <= mean {mean}");
            assert!(p95 <= m.max_response_time(kind) + 1e-9);
        }
    }

    #[test]
    fn bursty_arrivals_preserve_average_rate() {
        // The burst count over the run is itself random (~1 burst per 5 s
        // with exponential phase lengths), so use a long run and a
        // few-sigma tolerance.
        let mut cfg = engine_config(server(300.0, 10, 10, 10), 21);
        cfg.arrivals = ArrivalProcess::bursty();
        cfg.duration = SimTime::from_secs(160.0);
        cfg.warmup = SimTime::from_secs(2.0);
        let m = Engine::new(cfg).unwrap().run().unwrap();
        // Time-averaged rate stays ~300/s despite the modulation.
        let observed = m.injected() as f64 / 160.0;
        assert!((observed - 300.0).abs() < 30.0, "observed rate {observed}");
    }

    #[test]
    fn bursty_arrivals_inflate_response_time_tails() {
        let base = engine_config(server(450.0, 10, 16, 10), 33);
        let smooth = Engine::new(base.clone()).unwrap().run().unwrap();
        let mut bursty_cfg = base;
        bursty_cfg.arrivals = ArrivalProcess::Bursty {
            burst_factor: 5.0,
            mean_normal_secs: 2.0,
            mean_burst_secs: 0.5,
        };
        let bursty = Engine::new(bursty_cfg).unwrap().run().unwrap();
        // Same average offered load, but bursts pile up queues: the p95
        // response times must be clearly worse.
        let smooth_p95: f64 = TransactionKind::ALL
            .iter()
            .map(|&k| smooth.p95_response_time(k))
            .sum();
        let bursty_p95: f64 = TransactionKind::ALL
            .iter()
            .map(|&k| bursty.p95_response_time(k))
            .sum();
        assert!(
            bursty_p95 > 1.2 * smooth_p95,
            "smooth {smooth_p95} vs bursty {bursty_p95}"
        );
    }

    #[test]
    fn saturated_system_reports_no_completions_error_only_when_truly_dead() {
        // Even a saturated system completes *some* transactions, so this
        // should produce a measurement, not an error.
        let m = run(700.0, 1, 1, 1, 10);
        assert!(m.total_throughput() > 0.0);
        assert!(m.completion_rate() < 0.8);
    }
}
