//! `learn_rounds`: the continuous-learning supervisor run from a fresh
//! state directory for a fixed number of rounds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wlc::fault::{real_fs, write_atomic};
use wlc::learn::{LearnConfig, Supervisor};
use wlc::model::fallback::FallbackModel;
use wlc::model::{WorkloadModel, WorkloadModelBuilder};
use wlc::serve::{ClientConfig, ServeClient, ServeConfig, Server};
use wlc::sim::{stream_window, ServerConfig, StreamConfig};

use crate::characterize::transaction_ns;
use crate::repeat::repeat;
use crate::report::{Report, Tally};
use crate::trace::{timed, Tracer, NO_SPAN};
use crate::{stats, Ctx, Res};

/// Supervisor rounds per operation.
const ROUNDS: u64 = 20;
/// Serving fleet inside the supervisor: 2 replicas × 1 worker stays
/// within two cores.
const REPLICAS: usize = 2;
const WORKERS: usize = 1;
/// Set-ups per run (a fresh state directory + one warm-up operation
/// each); `setup_s` is their median.
const SETUPS: usize = 3;
const PROBE_REPS: usize = 10;

fn config(ctx: &Ctx, state_dir: PathBuf) -> LearnConfig {
    LearnConfig {
        state_dir,
        seed: ctx.seed,
        rounds: ROUNDS,
        jobs: ctx.jobs,
        replicas: REPLICAS,
        workers: WORKERS,
        quiet: true,
        ..LearnConfig::default()
    }
}

/// The stream the supervisor ingests (its `StreamConfig` is private).
fn stream(cfg: &LearnConfig) -> StreamConfig {
    StreamConfig {
        base_seed: cfg.seed,
        drift: cfg.drift,
        faults: cfg.faults,
        duration_secs: cfg.duration_secs,
        warmup_secs: cfg.warmup_secs,
        max_retries: cfg.stream_retries,
        jobs: cfg.jobs,
    }
}

/// What one operation leaves behind; identical across a run.
#[derive(Debug, PartialEq)]
struct Outputs {
    events: Vec<u8>,
    model: Vec<u8>,
    promotions: u64,
    rollbacks: u64,
    quarantined: u64,
}

/// One operation: `Supervisor::run` from a fresh state directory.
/// Returns the outputs and the operation's latency.
fn operation(ctx: &Ctx, tracer: &Tracer, request: u64) -> Res<(Outputs, Duration)> {
    let dir = ctx.work.join(format!("state-{request}"));
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let outcome = tracer.span("learn.run", NO_SPAN, request, |_| {
        Supervisor::new(config(ctx, dir.clone()))?.run()
    })?;
    let took = started.elapsed();
    let outputs = Outputs {
        events: std::fs::read(dir.join("events.log"))?,
        model: std::fs::read(dir.join(&outcome.live))?,
        promotions: outcome.promotions,
        rollbacks: outcome.rollbacks,
        quarantined: outcome.quarantined,
    };
    std::fs::remove_dir_all(&dir)?;
    Ok((outputs, took))
}

pub fn run(ctx: &Ctx, report: &mut Report, tally: &Tally) -> Res<()> {
    let tracer = Tracer::new(ctx.traced);
    let runs = repeat(
        ctx,
        tally,
        &tracer,
        if ctx.traced { 1 } else { SETUPS },
        || Ok(()),
        |tracer, request| operation(ctx, tracer, request),
    )?;
    runs.report(ctx, ROUNDS as f64, report);
    if !ctx.traced {
        return Ok(());
    }
    let reference = &runs.expected;
    let epochs: u64 = std::str::from_utf8(&reference.events)?
        .lines()
        .filter(|l| l.contains("event=retrain "))
        .filter_map(|l| l.split_whitespace().find_map(|w| w.strip_prefix("epochs=")))
        .map(|n| n.parse::<u64>().unwrap_or(0))
        .sum();
    report.set(
        "learn.round_ms",
        stats::median(&runs.traced_ms) / ROUNDS as f64,
    );
    report.set("learn.promotions", reference.promotions as f64);
    report.set("learn.rollbacks", reference.rollbacks as f64);
    report.set("learn.quarantined", reference.quarantined as f64);
    report.set("learn.retrain_epochs", epochs as f64);
    layer_probes(ctx, &tracer, report, &reference.model)?;
    crate::write_trace(ctx, &tracer)
}

/// Re-runs each layer the supervisor calls with one round's sizes.
fn layer_probes(ctx: &Ctx, tracer: &Tracer, report: &mut Report, model_bytes: &[u8]) -> Res<()> {
    let dir = ctx.work.join("probes");
    std::fs::create_dir_all(&dir)?;
    let cfg = config(ctx, dir.clone());
    let stream_cfg = stream(&cfg);

    let mut window = Vec::new();
    for _ in 0..PROBE_REPS {
        window.push(
            timed(tracer, "sim.stream_window", || {
                stream_window(&stream_cfg, cfg.bootstrap_ticks as u64, cfg.window)
            })?
            .1,
        );
    }
    report.set("sim.stream_window_ms", stats::median(&window));

    // Retrain as the supervisor does at a full buffer: hold out the
    // most recent samples, checkpoint a quarter of the way through.
    let (buffer, _) = stream_window(&stream_cfg, 0, cfg.buffer_cap)?;
    let train = buffer.subset(&(0..cfg.buffer_cap - cfg.holdout).collect::<Vec<_>>())?;
    let ckpt = dir.join("retrain.ckpt");
    let mut retrain = Vec::new();
    for _ in 0..PROBE_REPS / 2 {
        let _ = std::fs::remove_file(&ckpt);
        retrain.push(
            timed(tracer, "model.retrain", || {
                retrain_builder(&cfg, &ckpt).train(&train)
            })?
            .1,
        );
    }
    report.set("model.retrain_ms", stats::median(&retrain));

    let fs = real_fs();
    let path = dir.join("model.model");
    let mut writes = Vec::new();
    for _ in 0..PROBE_REPS * 2 {
        writes.push(
            timed(tracer, "fault.write_atomic", || {
                write_atomic(&*fs, "bench.write", &path, model_bytes)
            })?
            .1,
        );
    }
    report.set("fault.write_atomic_ms", stats::median(&writes));
    report.set("serve.reload_ms", reload_ms(tracer, &path)?);

    let tick = ServerConfig::from_vector(&buffer.samples()[0].x()[..4])?;
    report.set(
        "sim.transaction_ns",
        transaction_ns(tracer, tick, ctx.seed, cfg.duration_secs, cfg.warmup_secs)?,
    );
    Ok(())
}

/// The supervisor's retraining recipe (see `Supervisor::builder`).
fn retrain_builder(cfg: &LearnConfig, ckpt: &Path) -> WorkloadModelBuilder {
    let mut builder = WorkloadModelBuilder::new().no_hidden_layers();
    for &width in &cfg.hidden {
        builder = builder.hidden_layer(width);
    }
    builder
        .max_epochs(cfg.epochs)
        .learning_rate(cfg.learning_rate)
        .no_termination_threshold()
        .batch_size(cfg.batch_size)
        .seed(cfg.seed)
        .recover(2)
        .halt_on_divergence(true)
        .checkpoint(ckpt, (cfg.epochs / 4).max(1))
}

/// Rolling reload of `model` across an in-process fleet shaped like the
/// supervisor's, timed through `ServeClient::reload_detailed`.
fn reload_ms(tracer: &Tracer, model: &Path) -> Res<f64> {
    let live = WorkloadModel::load(model)?;
    let bundle = FallbackModel::new(Some(live), None, vec![], vec![])?;
    let config = ServeConfig {
        replicas: REPLICAS,
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", bundle, config)?;
    let client = ServeClient::new(server.local_addr().to_string(), ClientConfig::default());
    let handle = std::thread::spawn(move || server.run());
    let path = model.to_string_lossy().into_owned();
    let mut reloads = Vec::new();
    let result = (0..PROBE_REPS).try_for_each(|_| -> Res<()> {
        reloads.push(timed(tracer, "serve.reload", || client.reload_detailed(&path))?.1);
        Ok(())
    });
    client.shutdown()?;
    handle.join().map_err(|_| "in-process server panicked")??;
    result?;
    Ok(stats::median(&reloads))
}
