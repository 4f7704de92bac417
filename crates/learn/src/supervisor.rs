//! The continuous-learning supervisor state machine.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::thread;

use wlc_data::Dataset;
use wlc_fault::FsHandle;
use wlc_math::rng::{Seed, Xoshiro256};
use wlc_model::baseline::{LinearFeatures, LinearModel};
use wlc_model::fallback::FallbackModel;
use wlc_model::{ModelError, PerformanceModel, TrainedModel, WorkloadModel, WorkloadModelBuilder};
use wlc_nn::{Checkpoint, NnError};
use wlc_serve::{ClientConfig, ServeClient, ServeConfig, ServeError, Server};
use wlc_sim::{stream_window, DriftProfile, FaultProfile, StreamConfig};

use crate::state::{buffer_path, commit_events, durable_err, write_atomic, SupervisorState};
use crate::LearnError;

/// Seed stream for per-round retraining.
const RETRAIN_STREAM: u64 = 0x7e7a;
/// Seed stream for probation probe configurations.
const PROBE_STREAM: u64 = 0x9b0b;

/// Probe sampling ranges, mirroring the `wlc collect` defaults used by
/// the stream's own configuration sampler.
const RATE_RANGE: (f64, f64) = (350.0, 620.0);
const DEFAULT_RANGE: (f64, f64) = (5.0, 20.0);
const MFG_RANGE: (f64, f64) = (10.0, 24.0);
const WEB_RANGE: (f64, f64) = (5.0, 20.0);

/// Configuration for [`Supervisor`].
#[derive(Debug, Clone)]
pub struct LearnConfig {
    /// Directory holding all durable supervisor state.
    pub state_dir: PathBuf,
    /// Root seed; every stream, retrain and probe draw derives from it.
    pub seed: u64,
    /// Rounds to run (the bootstrap round 0 is extra).
    pub rounds: u64,
    /// Stream ticks ingested per round.
    pub window: usize,
    /// Maximum samples retained in the rolling buffer (oldest evicted).
    pub buffer_cap: usize,
    /// Most-recent samples held out of training for shadow scoring.
    pub holdout: usize,
    /// Ticks in the bootstrap window (also the pinned reference set).
    pub bootstrap_ticks: usize,
    /// Workload drift applied to the stream.
    pub drift: DriftProfile,
    /// Measurement faults injected into the stream.
    pub faults: FaultProfile,
    /// Simulated seconds per stream tick.
    pub duration_secs: f64,
    /// Warmup seconds discarded per stream tick.
    pub warmup_secs: f64,
    /// Retries before a dropped/stalled tick is quarantined.
    pub stream_retries: usize,
    /// Stream worker threads (never affects output).
    pub jobs: usize,
    /// Retraining epochs per round.
    pub epochs: usize,
    /// Checkpoint interval in epochs (0 = `epochs / 4`).
    pub checkpoint_every: usize,
    /// Hidden-layer widths for retrained candidates.
    pub hidden: Vec<usize>,
    /// Training learning rate.
    pub learning_rate: f64,
    /// Training mini-batch size.
    pub batch_size: usize,
    /// Promotion margin: the candidate must score at or below
    /// `live * (1 - margin)` on the recent holdout.
    pub margin: f64,
    /// Regression tolerance: the candidate must score at or below
    /// `live * (1 + tolerance)` on the reference window.
    pub tolerance: f64,
    /// Probation probes issued after each promotion.
    pub probes: usize,
    /// Watchdog threshold: roll back when the probe degraded/error
    /// rate exceeds this fraction.
    pub watchdog: f64,
    /// Serving replicas for the in-process fleet.
    pub replicas: usize,
    /// Worker threads per replica.
    pub workers: usize,
    /// Per-replica queue capacity.
    pub queue_capacity: usize,
    /// Chaos hook: force every probation probe in this round to fail,
    /// driving a watchdog breach and rollback.
    pub force_bad_round: Option<u64>,
    /// Chaos hook: die mid-retrain in this round, right after the first
    /// checkpoint is written and before anything is committed.
    pub chaos_kill_round: Option<u64>,
    /// Chaos hook: corrupt the candidate artifact of this round before
    /// asking the fleet to load it (the reload must reject it).
    pub chaos_corrupt_candidate_round: Option<u64>,
    /// Filesystem every durable transition goes through. The default
    /// [`wlc_fault::real_fs`] is a passthrough; the crash-consistency
    /// sweep swaps in a [`wlc_fault::SimFs`] to inject storage faults
    /// and replay power cuts. The handle is also passed to the
    /// in-process serving fleet, so promoted artifacts written here are
    /// read back through the same (possibly simulated) filesystem.
    pub fs: FsHandle,
    /// Suppress live event printing (the event log is still written).
    pub quiet: bool,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            state_dir: PathBuf::from("learn-state"),
            seed: 0,
            rounds: 3,
            window: 6,
            buffer_cap: 48,
            holdout: 4,
            bootstrap_ticks: 10,
            drift: DriftProfile::steady(),
            faults: FaultProfile::none(),
            duration_secs: 3.0,
            warmup_secs: 0.5,
            stream_retries: 2,
            jobs: 1,
            epochs: 400,
            checkpoint_every: 0,
            hidden: vec![8],
            learning_rate: 0.05,
            batch_size: 16,
            margin: 0.0,
            tolerance: 0.25,
            probes: 6,
            watchdog: 0.5,
            replicas: 2,
            workers: 2,
            queue_capacity: 16,
            force_bad_round: None,
            chaos_kill_round: None,
            chaos_corrupt_candidate_round: None,
            fs: wlc_fault::real_fs(),
            quiet: false,
        }
    }
}

impl LearnConfig {
    /// Validates every field, mirroring the trainer/server guards.
    pub fn validate(&self) -> Result<(), LearnError> {
        fn bad(name: &'static str, reason: impl Into<String>) -> LearnError {
            LearnError::InvalidParameter {
                name,
                reason: reason.into(),
            }
        }
        if self.rounds == 0 {
            return Err(bad("rounds", "must be at least 1"));
        }
        if self.window == 0 {
            return Err(bad("window", "must be at least 1"));
        }
        if self.holdout == 0 {
            return Err(bad("holdout", "must be at least 1"));
        }
        if self.buffer_cap < self.holdout + 2 {
            return Err(bad(
                "buffer_cap",
                format!("must be at least holdout + 2 = {}", self.holdout + 2),
            ));
        }
        if self.bootstrap_ticks < 2 {
            return Err(bad("bootstrap_ticks", "must be at least 2"));
        }
        if self.epochs == 0 {
            return Err(bad("epochs", "must be at least 1"));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(bad("learning_rate", "must be finite and positive"));
        }
        if self.batch_size == 0 {
            return Err(bad("batch_size", "must be at least 1"));
        }
        if self.hidden.contains(&0) {
            return Err(bad("hidden", "layer widths must be at least 1"));
        }
        if !self.margin.is_finite() || !(0.0..1.0).contains(&self.margin) {
            return Err(bad("margin", "must be in [0, 1)"));
        }
        if !self.tolerance.is_finite() || self.tolerance < 0.0 {
            return Err(bad("tolerance", "must be finite and non-negative"));
        }
        if self.probes == 0 {
            return Err(bad("probes", "must be at least 1"));
        }
        if !self.watchdog.is_finite()
            || !(0.0..=1.0).contains(&self.watchdog)
            || self.watchdog == 0.0
        {
            return Err(bad("watchdog", "must be in (0, 1]"));
        }
        if !self.duration_secs.is_finite() || !self.warmup_secs.is_finite() {
            return Err(bad("duration_secs", "durations must be finite"));
        }
        if self.warmup_secs < 0.0 || self.duration_secs <= self.warmup_secs {
            return Err(bad("duration_secs", "need duration > warmup >= 0"));
        }
        if self.replicas == 0 {
            return Err(bad("replicas", "must be at least 1"));
        }
        if self.workers == 0 {
            return Err(bad("workers", "must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(bad("queue_capacity", "must be at least 1"));
        }
        self.drift.validate()?;
        self.faults.validate()?;
        Ok(())
    }

    fn stream(&self) -> StreamConfig {
        StreamConfig {
            base_seed: self.seed,
            drift: self.drift,
            faults: self.faults,
            duration_secs: self.duration_secs,
            warmup_secs: self.warmup_secs,
            max_retries: self.stream_retries,
            jobs: self.jobs,
        }
    }

    fn checkpoint_interval(&self) -> usize {
        if self.checkpoint_every == 0 {
            (self.epochs / 4).max(1)
        } else {
            self.checkpoint_every
        }
    }
}

/// Summary of a completed (or resumed-and-completed) supervisor run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Rounds committed in total.
    pub rounds: u64,
    /// Promotions across the whole state directory's history.
    pub promotions: u64,
    /// Rollbacks across the whole history.
    pub rollbacks: u64,
    /// Quarantined candidates across the whole history.
    pub quarantined: u64,
    /// Final supervisor generation (one per fleet swap).
    pub generation: u64,
    /// File name of the model serving when the run finished.
    pub live: String,
}

/// Runs the stream → retrain → shadow → promote loop against an
/// in-process serving fleet. See the crate docs for the state-machine
/// and crash-safety contract.
#[derive(Debug)]
pub struct Supervisor {
    config: LearnConfig,
}

struct ServerHandle {
    client: ServeClient,
    thread: Option<thread::JoinHandle<Result<wlc_serve::ServeStats, ServeError>>>,
}

impl ServerHandle {
    fn shutdown(mut self) {
        let _ = self.client.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Supervisor {
    /// Validates `config` and prepares the state directory.
    pub fn new(config: LearnConfig) -> Result<Supervisor, LearnError> {
        config.validate()?;
        config
            .fs
            .create_dir_all("learn.state.dir", &config.state_dir.join("quarantine"))
            .map_err(|e| LearnError::State {
                path: config.state_dir.clone(),
                reason: e.to_string(),
            })?;
        Ok(Supervisor { config })
    }

    /// Runs (or resumes) the loop until `rounds` rounds are committed.
    ///
    /// # Errors
    ///
    /// Any stream, training, state or serving failure aborts the run;
    /// durable state is only ever advanced at round commit points, so
    /// rerunning after an error resumes from the last good round.
    pub fn run(&self) -> Result<Outcome, LearnError> {
        let dir = &self.config.state_dir;
        let fs = &*self.config.fs;
        let mut state = match SupervisorState::load(fs, dir)? {
            Some(state) => state,
            None => self.bootstrap()?,
        };
        // Post-commit scratch cleanup is not part of any commit: a
        // crash between a round's state commit and its scratch removal
        // leaves strays behind, so finish the sweep here before doing
        // new work (idempotent — missing files are fine).
        for round in 0..state.round {
            let _ = fs.remove_file("learn.scratch.remove", &buffer_path(dir, round));
        }
        for round in 1..=state.round {
            let _ = fs.remove_file("learn.scratch.remove", &self.ckpt_path(round));
        }
        let ref_path = dir.join("reference.csv");
        let reference = Dataset::from_csv_string(
            &fs.read_to_string("learn.reference.read", &ref_path)
                .map_err(durable_err("learn.reference.read", &ref_path))?,
        )?;
        let live = self.load_model(&dir.join(&state.live))?;
        let handle = self.start_server(live, &reference)?;
        // Per-invocation fleet swap counter; cross-checked against the
        // fleet generation the serving tier reports after each reload.
        let mut fleet_swaps = 0u64;
        let mut result = Ok(());
        for round in state.round + 1..=self.config.rounds {
            result = self.run_round(
                &mut state,
                &handle.client,
                &reference,
                &mut fleet_swaps,
                round,
            );
            if result.is_err() {
                break;
            }
        }
        handle.shutdown();
        result?;
        Ok(Outcome {
            rounds: state.round,
            promotions: state.promotions,
            rollbacks: state.rollbacks,
            quarantined: state.quarantined,
            generation: state.generation,
            live: state.live,
        })
    }

    /// Streams the pinned reference window, trains generation 0 and
    /// commits the initial state.
    fn bootstrap(&self) -> Result<SupervisorState, LearnError> {
        let cfg = &self.config;
        let dir = &cfg.state_dir;
        let (ds, summary) = stream_window(&cfg.stream(), 0, cfg.bootstrap_ticks)?;
        if ds.len() < 2 {
            return Err(LearnError::InvalidParameter {
                name: "bootstrap_ticks",
                reason: format!(
                    "bootstrap produced only {} usable samples (need at least 2); widen the window or relax the fault profile",
                    ds.len()
                ),
            });
        }
        let fs = &*cfg.fs;
        let csv = ds.to_csv_string();
        write_atomic(
            fs,
            "learn.reference.write",
            &dir.join("reference.csv"),
            csv.as_bytes(),
        )?;
        write_atomic(
            fs,
            "learn.buffer.write",
            &buffer_path(dir, 0),
            csv.as_bytes(),
        )?;
        let trained = self.builder(0).train(&ds)?;
        self.save_model(&trained.model, &dir.join("model-g0.model"))?;
        let state = SupervisorState {
            round: 0,
            generation: 0,
            promotions: 0,
            rollbacks: 0,
            quarantined: 0,
            live: "model-g0.model".to_string(),
            last_good: "model-g0.model".to_string(),
        };
        let mut events = Vec::new();
        self.emit(
            &mut events,
            format!(
                "event=bootstrap round=0 generation=0 samples={} quarantined={} live=model-g0.model",
                ds.len(),
                summary.quarantined.len()
            ),
        );
        commit_events(fs, dir, 0, &events)?;
        state.save(fs, dir)?;
        Ok(state)
    }

    /// One full round: stream → retrain → shadow → (promote →
    /// probation → maybe rollback) → commit.
    fn run_round(
        &self,
        state: &mut SupervisorState,
        client: &ServeClient,
        reference: &Dataset,
        fleet_swaps: &mut u64,
        round: u64,
    ) -> Result<(), LearnError> {
        let cfg = &self.config;
        let dir = &cfg.state_dir;
        let fs = &*cfg.fs;
        let mut events = Vec::new();

        // 1. Stream the round's window of absolute ticks.
        let start_tick = (cfg.bootstrap_ticks as u64) + (round - 1) * cfg.window as u64;
        let (fresh, summary) = stream_window(&cfg.stream(), start_tick, cfg.window)?;

        // 2. Roll the bounded buffer forward (versioned snapshot so a
        //    replayed round re-reads the untouched previous snapshot).
        let prev_buffer = buffer_path(dir, round - 1);
        let mut buffer = Dataset::from_csv_string(
            &fs.read_to_string("learn.buffer.read", &prev_buffer)
                .map_err(durable_err("learn.buffer.read", &prev_buffer))?,
        )?;
        if !fresh.is_empty() {
            buffer.merge(&fresh)?;
        }
        if buffer.len() > cfg.buffer_cap {
            let start = buffer.len() - cfg.buffer_cap;
            let keep: Vec<usize> = (start..buffer.len()).collect();
            buffer = buffer.subset(&keep)?;
        }
        write_atomic(
            fs,
            "learn.buffer.write",
            &buffer_path(dir, round),
            buffer.to_csv_string().as_bytes(),
        )?;
        self.emit(
            &mut events,
            format!(
                "event=stream round={round} ticks={} accepted={} quarantined={} buffer={}",
                cfg.window,
                fresh.len(),
                summary.quarantined.len(),
                buffer.len()
            ),
        );

        // 3. Hold the most recent samples out of training for shadow
        //    scoring; train on the rest.
        if buffer.len() < 2 {
            return Err(LearnError::State {
                path: buffer_path(dir, round),
                reason: "buffer has fewer than 2 samples; cannot retrain".to_string(),
            });
        }
        let holdout_n = cfg.holdout.min(buffer.len() - 1);
        let split = buffer.len() - holdout_n;
        let train_ds = buffer.subset(&(0..split).collect::<Vec<_>>())?;
        let recent = buffer.subset(&(split..buffer.len()).collect::<Vec<_>>())?;

        // 4. Retrain, resuming from a live checkpoint when one exists.
        let trained = self.retrain(&train_ds, round)?;
        self.emit(
            &mut events,
            format!(
                "event=retrain round={round} epochs={} samples={}",
                trained.report.loss_history.len(),
                train_ds.len()
            ),
        );

        // 5. Shadow-score candidate vs live on recent + reference.
        let live = self.load_model(&dir.join(&state.live))?;
        let candidate = trained.model;
        let cand_recent = score(&candidate, &recent)?;
        let live_recent = score(&live, &recent)?;
        let cand_ref = score(&candidate, reference)?;
        let live_ref = score(&live, reference)?;
        let promote = cand_recent <= live_recent * (1.0 - cfg.margin)
            && cand_ref <= live_ref * (1.0 + cfg.tolerance);
        self.emit(
            &mut events,
            format!(
                "event=shadow round={round} candidate_recent={cand_recent:.6} live_recent={live_recent:.6} candidate_ref={cand_ref:.6} live_ref={live_ref:.6} verdict={}",
                if promote { "promote" } else { "hold" }
            ),
        );

        // 6. Promote through the fleet's validated rolling reload.
        if promote {
            self.promote(state, client, fleet_swaps, round, &candidate, &mut events)?;
        }

        // 7. Commit: flush events, then the state record last (the
        //    commit point). Scratch is dropped only *after* the commit
        //    lands — removing it first would strand a crash that falls
        //    between the removal and the commit with a committed round
        //    number whose input buffer no longer exists.
        state.round = round;
        commit_events(fs, dir, round, &events)?;
        state.save(fs, dir)?;
        let _ = fs.remove_file("learn.scratch.remove", &self.ckpt_path(round));
        let _ = fs.remove_file("learn.scratch.remove", &buffer_path(dir, round - 1));
        Ok(())
    }

    /// Reads a committed model artifact through the configured
    /// filesystem (failpoint site `learn.model.load` — fatal: a
    /// committed model that cannot be read back needs an operator).
    fn load_model(&self, path: &Path) -> Result<WorkloadModel, LearnError> {
        const SITE: &str = "learn.model.load";
        let text = self
            .config
            .fs
            .read_to_string(SITE, path)
            .map_err(durable_err(SITE, path))?;
        WorkloadModel::from_text(&text).map_err(|e| {
            LearnError::Model(ModelError::LoadFailed {
                path: path.to_path_buf(),
                source: Box::new(e),
            })
        })
    }

    /// Trains the round's candidate with periodic checkpoints, resuming
    /// byte-identically from an existing checkpoint (a corrupt one is
    /// discarded and training restarts — same bytes either way).
    fn retrain(&self, train_ds: &Dataset, round: u64) -> Result<TrainedModel, LearnError> {
        let cfg = &self.config;
        let fs = &*cfg.fs;
        let ckpt = self.ckpt_path(round);
        let every = cfg.checkpoint_interval();
        // A failed checkpoint write mid-training surfaces as a typed
        // durable error at its site — the checkpoint is staged and
        // renamed, so rerunning resumes (or restarts) cleanly.
        let ckpt_err = |e: ModelError| match e {
            ModelError::Nn(NnError::Io { path, reason }) => LearnError::Durable {
                site: "nn.checkpoint.write".to_string(),
                path: PathBuf::from(path),
                reason,
                retriable: wlc_fault::site_retriable("nn.checkpoint.write"),
            },
            other => LearnError::Model(other),
        };
        let builder = self.builder(round).checkpoint(&ckpt, every);
        if cfg.chaos_kill_round == Some(round) {
            // Simulate a hard kill: run exactly up to the first
            // checkpoint (the checkpoint bytes do not depend on
            // max_epochs), then die without committing anything.
            self.builder(round)
                .checkpoint(&ckpt, every)
                .max_epochs(every.min(cfg.epochs))
                .train(train_ds)
                .map_err(ckpt_err)?;
            return Err(LearnError::ChaosKill { round });
        }
        let resume = match Checkpoint::load_with(fs, &ckpt) {
            Ok(ck) => Some(ck),
            Err(_) => {
                // Missing or corrupt: retrain from scratch. Remove a
                // corrupt file so the trainer can rewrite it.
                let _ = fs.remove_file("learn.scratch.remove", &ckpt);
                None
            }
        };
        let trained = match resume {
            Some(ck) => builder.train_resuming(train_ds, &ck).map_err(ckpt_err)?,
            None => builder.train(train_ds).map_err(ckpt_err)?,
        };
        Ok(trained)
    }

    /// Saves the candidate, swaps it in via rolling reload, and runs
    /// probation with watchdog-guarded rollback. A candidate the fleet
    /// rejects is quarantined without touching serving.
    fn promote(
        &self,
        state: &mut SupervisorState,
        client: &ServeClient,
        fleet_swaps: &mut u64,
        round: u64,
        candidate: &WorkloadModel,
        events: &mut Vec<String>,
    ) -> Result<(), LearnError> {
        let cfg = &self.config;
        let dir = &cfg.state_dir;
        let next_gen = state.generation + 1;
        let name = format!("model-g{next_gen}.model");
        let path = dir.join(&name);
        self.save_model(candidate, &path)?;
        if cfg.chaos_corrupt_candidate_round == Some(round) {
            // Chaos hook: tear the artifact so the fleet's validated
            // reload must reject it.
            cfg.fs
                .write("learn.model.write", &path, b"wlc-model v1\ntruncated")
                .map_err(|e| LearnError::State {
                    path: path.clone(),
                    reason: e.to_string(),
                })?;
        }
        match client.reload_detailed(&path.to_string_lossy()) {
            Ok(outcome) => {
                *fleet_swaps += 1;
                self.check_fleet(outcome.generation, *fleet_swaps, dir)?;
                state.generation = next_gen;
                state.promotions += 1;
                state.last_good = state.live.clone();
                state.live = name.clone();
                client.notify_supervisor("promotion")?;
                self.emit(
                    events,
                    format!("event=promote round={round} generation={next_gen} model={name}"),
                );
                self.probation(state, client, fleet_swaps, round, events)
            }
            Err(ServeError::Rejected {
                retriable: false, ..
            }) => {
                // The fleet refused the candidate (failed validation);
                // serving is untouched. Quarantine it with a diagnosis.
                self.quarantine(state, round, &name, "reload_rejected", None)?;
                client.notify_supervisor("quarantine")?;
                self.emit(
                    events,
                    format!("event=quarantine round={round} reason=reload_rejected model={name}"),
                );
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Probes the freshly promoted model; a watchdog breach rolls the
    /// fleet back to last-good and quarantines the candidate.
    fn probation(
        &self,
        state: &mut SupervisorState,
        client: &ServeClient,
        fleet_swaps: &mut u64,
        round: u64,
        events: &mut Vec<String>,
    ) -> Result<(), LearnError> {
        let cfg = &self.config;
        let dir = &cfg.state_dir;
        client.notify_supervisor("probation_start")?;
        self.emit(
            events,
            format!(
                "event=probation_start round={round} generation={} probes={}",
                state.generation, cfg.probes
            ),
        );
        if cfg.force_bad_round == Some(round) {
            // Chaos hook: arm forced primary failures so every probe
            // degrades to the baseline, breaching the watchdog.
            client.force_fail(cfg.probes as u64)?;
        }
        let probe_seed = Seed::new(cfg.seed).derive(PROBE_STREAM).derive(round);
        let mut rng = Xoshiro256::seed_from(probe_seed.value());
        let mut breaches = 0usize;
        for _ in 0..cfg.probes {
            let inputs = probe_inputs(&mut rng);
            match client.predict(&inputs) {
                Ok(prediction) if !prediction.degraded => {}
                _ => breaches += 1,
            }
        }
        let rate = breaches as f64 / cfg.probes as f64;
        let breach = rate > cfg.watchdog;
        self.emit(
            events,
            format!(
                "event=probation round={round} probes={} breaches={breaches} verdict={}",
                cfg.probes,
                if breach { "breach" } else { "pass" }
            ),
        );
        if breach {
            // Disarm any leftover forced failures before re-probing the
            // restored model.
            client.force_fail(0)?;
            let bad = state.live.clone();
            let restore = state.last_good.clone();
            let outcome = client.reload_detailed(&dir.join(&restore).to_string_lossy())?;
            *fleet_swaps += 1;
            self.check_fleet(outcome.generation, *fleet_swaps, dir)?;
            state.generation += 1;
            state.rollbacks += 1;
            state.live = restore.clone();
            self.quarantine(
                state,
                round,
                &bad,
                &format!("watchdog breach: {breaches}/{} probes degraded or failed (rate {rate:.3} > {:.3})", cfg.probes, cfg.watchdog),
                Some(&restore),
            )?;
            client.notify_supervisor("rollback")?;
            client.notify_supervisor("quarantine")?;
            self.emit(
                events,
                format!(
                    "event=rollback round={round} generation={} restored={restore} quarantined={bad}",
                    state.generation
                ),
            );
            self.emit(
                events,
                format!("event=quarantine round={round} reason=watchdog model={bad}"),
            );
        }
        client.notify_supervisor("probation_end")?;
        self.emit(events, format!("event=probation_end round={round}"));
        Ok(())
    }

    /// Moves a bad candidate into `quarantine/` with a diagnosis record.
    fn quarantine(
        &self,
        state: &mut SupervisorState,
        round: u64,
        name: &str,
        reason: &str,
        restored: Option<&str>,
    ) -> Result<(), LearnError> {
        const SITE: &str = "learn.quarantine.write";
        let dir = &self.config.state_dir;
        let fs = &*self.config.fs;
        let src = dir.join(name);
        let dst = dir.join("quarantine").join(format!("round-{round}.model"));
        let bytes = fs.read(SITE, &src).map_err(durable_err(SITE, &src))?;
        write_atomic(fs, SITE, &dst, &bytes)?;
        let _ = fs.remove_file("learn.scratch.remove", &src);
        let mut diagnosis =
            format!("wlc-learn-diagnosis v1\nround {round}\nmodel {name}\nreason {reason}\n");
        if let Some(restored) = restored {
            diagnosis.push_str(&format!("restored {restored}\n"));
        }
        write_atomic(
            fs,
            SITE,
            &dir.join("quarantine")
                .join(format!("round-{round}.diagnosis")),
            diagnosis.as_bytes(),
        )?;
        state.quarantined += 1;
        Ok(())
    }

    /// Asserts the fleet's committed generation matches the number of
    /// swaps this invocation performed — i.e. serving only ever moved
    /// when the supervisor asked it to.
    fn check_fleet(&self, fleet: u64, swaps: u64, dir: &Path) -> Result<(), LearnError> {
        if fleet != swaps {
            return Err(LearnError::State {
                path: dir.to_path_buf(),
                reason: format!(
                    "fleet generation {fleet} diverged from supervisor swap count {swaps}"
                ),
            });
        }
        Ok(())
    }

    fn builder(&self, round: u64) -> WorkloadModelBuilder {
        let cfg = &self.config;
        let mut builder = WorkloadModelBuilder::new().no_hidden_layers();
        for &width in &cfg.hidden {
            builder = builder.hidden_layer(width);
        }
        builder
            .max_epochs(cfg.epochs)
            .learning_rate(cfg.learning_rate)
            .no_termination_threshold()
            .batch_size(cfg.batch_size)
            .seed(
                Seed::new(cfg.seed)
                    .derive(RETRAIN_STREAM)
                    .derive(round)
                    .value(),
            )
            .recover(2)
            .halt_on_divergence(true)
            .checkpoint_fs(cfg.fs.clone())
    }

    /// Saves a model artifact crash-safely (write + fsync + rename;
    /// failpoint site `learn.model.write`).
    fn save_model(&self, model: &WorkloadModel, path: &Path) -> Result<(), LearnError> {
        write_atomic(
            &*self.config.fs,
            "learn.model.write",
            path,
            model.to_text().as_bytes(),
        )
    }

    fn ckpt_path(&self, round: u64) -> PathBuf {
        self.config.state_dir.join(format!("retrain-{round}.ckpt"))
    }

    /// Boots the in-process serving fleet on an ephemeral port with the
    /// committed live model and a linear baseline fit on the reference
    /// window.
    fn start_server(
        &self,
        live: WorkloadModel,
        reference: &Dataset,
    ) -> Result<ServerHandle, LearnError> {
        let cfg = &self.config;
        let baseline = LinearModel::fit(reference, LinearFeatures::FirstOrder)?;
        let bundle = FallbackModel::new(Some(live), Some(baseline), Vec::new(), Vec::new())?;
        let serve_config = ServeConfig {
            replicas: cfg.replicas,
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            // Keep the breaker closed across a fully forced-bad
            // probation window so post-rollback probes reach the
            // primary immediately (the breaker's own behaviour is
            // covered by the serving tier's tests).
            breaker_threshold: cfg.probes as u32 + 1,
            // Reload candidates through the supervisor's filesystem so
            // fault schedules and the simulated crash model cover the
            // fleet's reads too.
            fs: cfg.fs.clone(),
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", bundle, serve_config)?;
        let addr = server.local_addr().to_string();
        let thread = thread::spawn(move || server.run());
        let client = ServeClient::new(addr, ClientConfig::default());
        Ok(ServerHandle {
            client,
            thread: Some(thread),
        })
    }

    fn emit(&self, events: &mut Vec<String>, line: String) {
        if !self.config.quiet {
            // `events.log` is the durable record: a stdout reader that
            // went away costs the echo, not the run.
            let _ = writeln!(std::io::stdout().lock(), "{line}");
        }
        events.push(line);
    }
}

/// Shadow score: mean relative error across outputs and samples.
///
/// Unlike the paper's harmonic-mean metric (which rejects an output
/// column whose actuals are all zero), this stays defined on the tiny
/// recent-holdout windows the supervisor compares on: samples with a
/// zero actual are skipped, and an output with no usable samples
/// simply contributes nothing. Lower is better; both models are scored
/// with the same rule, so the comparison is fair.
fn score(model: &WorkloadModel, dataset: &Dataset) -> Result<f64, LearnError> {
    let (xs, ys) = dataset.to_matrices();
    let predicted = model.predict_batch(&xs)?;
    let mut total = 0.0;
    let mut columns = 0usize;
    for j in 0..ys.cols() {
        let mut sum = 0.0;
        let mut used = 0usize;
        for r in 0..ys.rows() {
            let actual = ys.get(r, j);
            if actual != 0.0 {
                sum += (predicted.get(r, j) - actual).abs() / actual.abs();
                used += 1;
            }
        }
        if used > 0 {
            total += sum / used as f64;
            columns += 1;
        }
    }
    Ok(if columns == 0 {
        0.0
    } else {
        total / columns as f64
    })
}

/// Draws one probe configuration from the `wlc collect` default
/// ranges, matching the stream's own sampler (rate, default threads,
/// manufacturing threads, web threads — thread counts rounded).
fn probe_inputs(rng: &mut Xoshiro256) -> Vec<f64> {
    vec![
        rng.next_range(RATE_RANGE.0, RATE_RANGE.1),
        rng.next_range(DEFAULT_RANGE.0, DEFAULT_RANGE.1).round(),
        rng.next_range(MFG_RANGE.0, MFG_RANGE.1).round(),
        rng.next_range(WEB_RANGE.0, WEB_RANGE.1).round(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_bad_values() {
        let ok = LearnConfig::default();
        assert!(ok.validate().is_ok());
        type Mutation = Box<dyn Fn(&mut LearnConfig)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("rounds", Box::new(|c| c.rounds = 0)),
            ("window", Box::new(|c| c.window = 0)),
            ("holdout", Box::new(|c| c.holdout = 0)),
            ("buffer_cap", Box::new(|c| c.buffer_cap = 3)),
            ("bootstrap_ticks", Box::new(|c| c.bootstrap_ticks = 1)),
            ("epochs", Box::new(|c| c.epochs = 0)),
            ("learning_rate", Box::new(|c| c.learning_rate = 0.0)),
            ("batch_size", Box::new(|c| c.batch_size = 0)),
            ("hidden", Box::new(|c| c.hidden = vec![4, 0])),
            ("margin", Box::new(|c| c.margin = 1.0)),
            ("tolerance", Box::new(|c| c.tolerance = -0.1)),
            ("probes", Box::new(|c| c.probes = 0)),
            ("watchdog", Box::new(|c| c.watchdog = 0.0)),
            ("duration_secs", Box::new(|c| c.duration_secs = 0.2)),
            ("replicas", Box::new(|c| c.replicas = 0)),
            ("workers", Box::new(|c| c.workers = 0)),
            ("queue_capacity", Box::new(|c| c.queue_capacity = 0)),
        ];
        for (name, mutate) in cases {
            let mut cfg = LearnConfig::default();
            mutate(&mut cfg);
            match cfg.validate() {
                Err(LearnError::InvalidParameter { name: got, .. }) => {
                    assert_eq!(got, name, "wrong parameter blamed");
                }
                other => panic!("`{name}` should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn probe_inputs_stay_in_collect_ranges_and_are_seeded() {
        let mut a = Xoshiro256::seed_from(7);
        let mut b = Xoshiro256::seed_from(7);
        for _ in 0..32 {
            let inputs = probe_inputs(&mut a);
            assert_eq!(inputs, probe_inputs(&mut b));
            assert!(inputs[0] >= RATE_RANGE.0 && inputs[0] <= RATE_RANGE.1);
            assert!(inputs[1] >= DEFAULT_RANGE.0 && inputs[1] <= DEFAULT_RANGE.1);
            assert!(inputs[2] >= MFG_RANGE.0 && inputs[2] <= MFG_RANGE.1);
            assert!(inputs[3] >= WEB_RANGE.0 && inputs[3] <= WEB_RANGE.1);
        }
    }

    #[test]
    fn checkpoint_interval_defaults_to_quarter_epochs() {
        let mut cfg = LearnConfig {
            epochs: 400,
            checkpoint_every: 0,
            ..LearnConfig::default()
        };
        assert_eq!(cfg.checkpoint_interval(), 100);
        cfg.epochs = 2;
        assert_eq!(cfg.checkpoint_interval(), 1);
        cfg.checkpoint_every = 7;
        assert_eq!(cfg.checkpoint_interval(), 7);
    }
}
