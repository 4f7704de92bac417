//! `characterize`: the paper's offline pipeline through the library
//! calls the CLI makes — Latin-hypercube design, simulation, CSV round
//! trip, training, 5-fold cross validation and response surfaces.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use wlc::data::design::{latin_hypercube, round_to_integers, ParamRange};
use wlc::data::{Dataset, ValidateMode};
use wlc::math::rng::{Seed, Xoshiro256};
use wlc::math::Matrix;
use wlc::model::{CrossValidator, ResponseSurface, WorkloadModel, WorkloadModelBuilder};
use wlc::nn::{Activation, BandEngine, Loss, MlpBuilder, OptimizerKind, Workspace};
use wlc::sim::{run_design_jobs, ServerConfig, Simulation};

use crate::repeat::repeat;
use crate::report::{Report, Tally};
use crate::trace::{self_times_by_name, timed, Tracer, NO_SPAN};
use crate::{stats, Ctx, Res};

/// Configurations in the design (one CSV row each).
const CONFIGS: usize = 128;
/// Simulated seconds per configuration, as `wlc collect` defaults.
const SIM_SECS: f64 = 20.0;
const SIM_WARMUP_SECS: f64 = 4.0;
/// Fixed epoch budget with the loose-fit termination off, so a change
/// to the numerics cannot change the amount of work.
const EPOCHS: usize = 1500;
const LEARNING_RATE: f64 = 0.02;
const FOLDS: usize = 5;
/// Grid points per swept axis, as `wlc surface` defaults.
const SURFACE_STEPS: usize = 9;
/// Set-ups per run (preparation + one warm-up operation each);
/// `setup_s` is their median.
const SETUPS: usize = 3;
/// The MLP topology `WorkloadModelBuilder` trains by default.
const TOPOLOGY: [usize; 4] = [4, 16, 12, 5];

/// `wlc collect`'s default ranges: injection rate, default, mfg and web
/// thread counts.
fn ranges() -> Res<[ParamRange; 4]> {
    Ok([
        ParamRange::new(350.0, 620.0)?,
        ParamRange::new(5.0, 20.0)?,
        ParamRange::new(10.0, 24.0)?,
        ParamRange::new(5.0, 20.0)?,
    ])
}

/// A Latin-hypercube design of `n` configurations with integer thread
/// counts, exactly as `wlc collect` builds it.
pub fn design(seed: u64, n: usize) -> Res<Vec<ServerConfig>> {
    let mut points = latin_hypercube(&ranges()?, n, Seed::new(seed))?;
    for p in &mut points {
        let rate = p[0];
        round_to_integers(std::slice::from_mut(p));
        p[0] = rate;
    }
    Ok(points
        .iter()
        .map(|p| ServerConfig::from_vector(p))
        .collect::<Result<_, _>>()?)
}

/// Simulates `configs` the way `wlc collect --seed <seed>` does.
pub fn simulate(configs: &[ServerConfig], seed: u64, jobs: usize) -> Res<Dataset> {
    Ok(run_design_jobs(
        configs,
        seed.wrapping_add(1),
        SIM_SECS,
        SIM_WARMUP_SECS,
        jobs,
    )?)
}

/// `wlc train`'s recipe (Adam, lr 0.02, default topology) with a fixed
/// epoch budget.
pub fn builder(epochs: usize, seed: u64, jobs: usize) -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .max_epochs(epochs)
        .learning_rate(LEARNING_RATE)
        .optimizer(OptimizerKind::adam())
        .no_termination_threshold()
        .seed(seed)
        .jobs(jobs)
}

/// What one operation produced; identical across the operations of a run.
#[derive(Debug, PartialEq)]
struct Outputs {
    model_text: String,
    cv_table: String,
    surfaces: String,
    cv_error_pct: f64,
}

/// One characterization, each library call in its own span.
fn operation(ctx: &Ctx, tracer: &Tracer, request: u64, csv: &Path) -> Res<Outputs> {
    let (seed, jobs) = (ctx.seed, ctx.jobs);
    tracer.span("characterize", NO_SPAN, request, |op| {
        let configs = tracer.span("data.design", op, request, |_| design(seed, CONFIGS))?;
        let simulated = tracer.span("sim.run_design", op, request, |_| {
            simulate(&configs, seed, jobs)
        })?;
        let data = tracer.span("data.csv", op, request, |_| -> Res<Dataset> {
            simulated.save_csv(csv)?;
            Ok(Dataset::load_csv_validated(csv, ValidateMode::Strict)?.0)
        })?;
        let trained = tracer.span("model.train", op, request, |_| {
            builder(EPOCHS, seed, jobs).train(&data)
        })?;
        let cv = tracer.span("model.cv", op, request, |_| {
            CrossValidator::new(builder(EPOCHS, seed, jobs))
                .k(FOLDS)
                .seed(seed)
                .jobs(jobs)
                .run(&data)
        })?;
        let surfaces = tracer.span("model.surface", op, request, |_| {
            surfaces(&trained.model, jobs)
        })?;
        Ok(Outputs {
            model_text: trained.model.to_text(),
            cv_table: cv.to_table(),
            surfaces,
            cv_error_pct: cv.overall_error() * 100.0,
        })
    })
}

/// Evaluates a surface for every input pair × output around the centre
/// of the design ranges; returns every grid value, printed exactly.
fn surfaces(model: &WorkloadModel, jobs: usize) -> Res<String> {
    let ranges = ranges()?;
    let axis = |r: &ParamRange| -> Vec<f64> {
        (0..SURFACE_STEPS)
            .map(|i| r.lerp(i as f64 / (SURFACE_STEPS - 1) as f64).round())
            .collect()
    };
    let base: Vec<f64> = ranges.iter().map(|r| r.lerp(0.5).round()).collect();
    let mut engine = BandEngine::new(jobs);
    let mut out = String::new();
    for a1 in 0..ranges.len() {
        for a2 in a1 + 1..ranges.len() {
            for output in 0..model.output_names().len() {
                let surface = ResponseSurface::new(
                    base.clone(),
                    a1,
                    axis(&ranges[a1]),
                    a2,
                    axis(&ranges[a2]),
                    output,
                )?;
                let grid = surface.evaluate_banded(model, &mut engine)?;
                for v in grid.z().as_slice() {
                    let _ = write!(out, "{v:?} ");
                }
            }
        }
    }
    Ok(out)
}

/// Grid points one operation evaluates.
fn surface_points() -> usize {
    let pairs = TOPOLOGY[0] * (TOPOLOGY[0] - 1) / 2;
    pairs * TOPOLOGY[3] * SURFACE_STEPS * SURFACE_STEPS
}

/// Multiply-add flops of one full-batch epoch over `rows` rows at
/// [`TOPOLOGY`]: forward, weight gradient and delta back-propagation
/// (none into the input layer), two flops per multiply-add.
fn gemm_flop_per_epoch(rows: usize) -> f64 {
    let macs: Vec<usize> = TOPOLOGY.windows(2).map(|w| w[0] * w[1]).collect();
    let all: usize = macs.iter().sum();
    let hidden: usize = macs[1..].iter().sum();
    (2 * rows * (all + all + hidden)) as f64
}

pub fn run(ctx: &Ctx, report: &mut Report, tally: &Tally) -> Res<()> {
    let csv = ctx.work.join("design.csv");
    let tracer = Tracer::new(ctx.traced);
    let runs = repeat(
        ctx,
        tally,
        &tracer,
        if ctx.traced { 1 } else { SETUPS },
        || Ok(std::fs::create_dir_all(&ctx.work)?),
        |tracer, request| {
            let started = Instant::now();
            let out = operation(ctx, tracer, request, &csv)?;
            Ok((out, started.elapsed()))
        },
    )?;
    runs.report(ctx, CONFIGS as f64, report);
    if !ctx.traced {
        return Ok(());
    }
    report.set("model.cv_error_pct", runs.expected.cv_error_pct);

    let spans = tracer.spans();
    let by_name = self_times_by_name(&spans);
    let median_ms = |name: &str| -> f64 {
        let v: Vec<f64> = by_name.get(name).map_or(Vec::new(), |v| {
            v.iter().map(|&ns| ns as f64 / 1e6).collect()
        });
        stats::median(&v)
    };
    for (metric, span) in [
        ("data.design_ms", "data.design"),
        ("sim.run_design_ms", "sim.run_design"),
        ("data.csv_ms", "data.csv"),
        ("model.train_ms", "model.train"),
        ("model.cv_ms", "model.cv"),
        ("model.surface_ms", "model.surface"),
    ] {
        report.set(metric, median_ms(span));
    }
    let op_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "characterize")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    report.set(
        "trace.unattributed_pct",
        median_ms("characterize") / stats::median(&op_ms) * 100.0,
    );
    report.set(
        "nn.epoch_us",
        median_ms("model.train") * 1e3 / EPOCHS as f64,
    );
    report.set("model.surface_points", surface_points() as f64);
    report.set("math.gemm_flop_per_epoch", gemm_flop_per_epoch(CONFIGS));
    layer_probes(ctx, &tracer, report)?;
    crate::write_trace(ctx, &tracer)
}

/// Repetitions of each single-layer probe.
const PROBE_REPS: usize = 5;
const KERNEL_REPS: usize = 400;

/// Per-layer probes that need their own calls: pool speed-up, DES cost
/// per transaction and the band engine's kernels at the training shape.
fn layer_probes(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Res<()> {
    let configs = design(ctx.seed, CONFIGS)?;
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    for _ in 0..2 {
        serial.push(timed(tracer, "exec.serial", || simulate(&configs, ctx.seed, 1))?.1);
        parallel.push(
            timed(tracer, "exec.parallel", || {
                simulate(&configs, ctx.seed, ctx.jobs)
            })?
            .1,
        );
    }
    report.set(
        "exec.sim_speedup",
        stats::median(&serial) / stats::median(&parallel),
    );
    report.set(
        "sim.transaction_ns",
        transaction_ns(tracer, configs[0], ctx.seed, SIM_SECS, SIM_WARMUP_SECS)?,
    );

    let mlp = MlpBuilder::new(TOPOLOGY[0])
        .hidden(TOPOLOGY[1], Activation::logistic())
        .hidden(TOPOLOGY[2], Activation::logistic())
        .output(TOPOLOGY[3], Activation::identity())
        .seed(ctx.seed)
        .build()?;
    let mut rng = Xoshiro256::seed_from(ctx.seed);
    let xs = Matrix::from_fn(CONFIGS, TOPOLOGY[0], |_, _| rng.next_f64() * 2.0 - 1.0);
    let ys = Matrix::from_fn(CONFIGS, TOPOLOGY[3], |_, _| rng.next_f64() * 2.0 - 1.0);
    let mut engine = BandEngine::new(ctx.jobs);
    let mut ws = Workspace::for_mlp(&mlp);
    let mut forward = Vec::new();
    let mut gradient = Vec::new();
    for _ in 0..KERNEL_REPS {
        forward.push(
            timed(tracer, "nn.forward_batch", || {
                engine.forward_batch(&mlp, &xs, &mut ws).map(|_| ())
            })?
            .1,
        );
        gradient.push(
            timed(tracer, "nn.batch_gradient", || {
                engine.batch_gradient(&mlp, &xs, &ys, Loss::MeanSquared, &mut ws)
            })?
            .1,
        );
    }
    report.set(
        "nn.forward_rows_per_s",
        CONFIGS as f64 / (stats::median(&forward) / 1e3),
    );
    report.set(
        "nn.gradient_rows_per_s",
        CONFIGS as f64 / (stats::median(&gradient) / 1e3),
    );
    Ok(())
}

/// Nanoseconds of discrete-event simulation per injected transaction:
/// one `Simulation::run` divided by its injected count (median of
/// [`PROBE_REPS`]).
pub fn transaction_ns(
    tracer: &Tracer,
    config: ServerConfig,
    seed: u64,
    secs: f64,
    warmup: f64,
) -> Res<f64> {
    let mut per_tx = Vec::new();
    for _ in 0..PROBE_REPS {
        let (m, ms) = timed(tracer, "sim.simulation", || {
            Simulation::new(config)
                .seed(seed)
                .duration_secs(secs)
                .warmup_secs(warmup)
                .run()
        })?;
        per_tx.push(ms * 1e6 / m.injected().max(1) as f64);
    }
    Ok(stats::median(&per_tx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_follows_the_layer_shapes() {
        // 4·16 + 16·12 + 12·5 = 316 MACs forward and for the weight
        // gradient, 16·12 + 12·5 = 252 for deltas: 2·(316+316+252).
        assert_eq!(gemm_flop_per_epoch(1), 1768.0);
        assert_eq!(gemm_flop_per_epoch(128), 1768.0 * 128.0);
        assert_eq!(surface_points(), 6 * 5 * 81);
    }
}
