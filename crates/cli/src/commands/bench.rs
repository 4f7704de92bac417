//! `wlc bench` — tracked performance baseline for the train/predict hot
//! path.
//!
//! Two benchmarks:
//!
//! - **train-epoch** — one full epoch (minibatch gradients + optimizer
//!   steps + full-set evaluation) through (a) the naive per-sample
//!   [`wlc_nn::oracle`] (the baseline) and (b) the allocation-free
//!   GEMM/workspace path the trainer uses, with its row bands fanned out
//!   over a `--jobs`-sized [`wlc_nn::BandEngine`] team (bitwise
//!   identical for any setting).
//! - **forward-batch** — batched inference via the warm workspace vs
//!   per-row [`Mlp::forward`].
//!
//! Serving is measured end to end by e2ebench's `serve_single` and
//! `serve_batch` workloads (`bash e2ebench/run.sh`), not here.
//!
//! The timed network, data and repeat counts are fixed (see [`USAGE`]),
//! so every report measures the same work. Each metric reports the
//! median with p10/p90 over the repeats and is written to a JSON report
//! (`BENCH_nn.json`, or `BENCH_nn.new.json` under `--check`).
//!
//! Raw throughput depends on the machine, so the regression gate
//! (`--check <committed.json>`) compares *in-run speedup ratios*
//! (batched vs baseline measured in the same process) against the
//! committed ratios: the run fails if the train-epoch speedup drops
//! below 3x, or if either speedup regresses more than 25% relative to
//! the committed report.

use std::time::Instant;

use wlc_math::rng::Xoshiro256;
use wlc_math::Matrix;
use wlc_nn::{oracle, Activation, BandEngine, Loss, Mlp, MlpBuilder, Workspace, BAND_ROWS};
use wlc_serve::Json;

use super::{parse_flags, CmdResult};

const USAGE: &str = "\
wlc bench — time the train/predict hot path and track a baseline

FLAGS:
    --quick             fewer samples and repeats (CI mode)
    --check <path>      verify speedups against a committed report;
                        exits non-zero on >25% ratio regression or a
                        train-epoch speedup below 3x
    --jobs <usize>      row-band threads in the batched arms; results
                        are bitwise identical for any setting
                        [default: 1]

Both arms time a 4 -> 16,12 (relu) -> 5 network on 1024 synthetic
rows in minibatches of 256, 30 repeats per metric (512 rows and 7
repeats with --quick). The report goes to BENCH_nn.json, or to
BENCH_nn.new.json with --check.

The hidden activation is `relu` so the timed work is the
linear-algebra/allocation hot path rather than `exp` calls, whose cost
is identical in both arms and would only dilute the measured ratio.

The baseline arm is the naive per-sample oracle the bitwise tests check
the batched path against (allocating forward trace + per-sample
lane-order accumulation) and per-row `Mlp::forward`, so the reported
speedup measures what the workspace/GEMM path buys on this machine.";

// The timed network (relu hidden layers) and minibatch are fixed, so
// every report measures the same work; `config` records them.
const INPUTS: usize = 4;
const HIDDEN: [usize; 2] = [16, 12];
const OUTPUTS: usize = 5;
const BATCH: usize = 256;

/// Median and tail percentiles over timing repeats.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    p10: f64,
    p90: f64,
}

impl Summary {
    fn of(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
        let pick = |q: f64| {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx.min(samples.len() - 1)]
        };
        Summary {
            median: pick(0.5),
            p10: pick(0.1),
            p90: pick(0.9),
        }
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("p10", Json::Num(self.p10)),
            ("p90", Json::Num(self.p90)),
        ])
    }
}

/// Times two arms interleaved (`base, fast, base, fast, ...`) and
/// returns `(base_summary, fast_summary, speedup)` where the speedup is
/// the median of the per-repeat `fast/base` ratios. Interleaving means
/// machine-wide drift (frequency scaling, noisy neighbours) hits both
/// arms alike instead of biasing whichever arm happened to run during
/// the slow minutes, and pairing the ratios cancels what drift remains.
fn throughput_pair<B: FnMut(), F: FnMut()>(
    repeats: usize,
    units: f64,
    mut base: B,
    mut fast: F,
) -> (Summary, Summary, f64) {
    let mut base_samples = Vec::with_capacity(repeats);
    let mut fast_samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        base();
        base_samples.push(units / start.elapsed().as_secs_f64().max(1e-12));
        let start = Instant::now();
        fast();
        fast_samples.push(units / start.elapsed().as_secs_f64().max(1e-12));
    }
    let ratios: Vec<f64> = fast_samples
        .iter()
        .zip(&base_samples)
        .map(|(f, b)| f / b)
        .collect();
    let speedup = Summary::of(ratios).median;
    (
        Summary::of(base_samples),
        Summary::of(fast_samples),
        speedup,
    )
}

struct BenchSetup {
    xs: Matrix,
    ys: Matrix,
    mlp: Mlp,
    lr: f64,
}

fn synthetic(inputs: usize, outputs: usize, samples: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut xs = Matrix::zeros(samples, inputs);
    let mut ys = Matrix::zeros(samples, outputs);
    for r in 0..samples {
        for v in xs.row_mut(r) {
            *v = rng.next_f64() * 2.0 - 1.0;
        }
        let row = xs.row(r).to_vec();
        for (c, v) in ys.row_mut(r).iter_mut().enumerate() {
            let a = row[c % row.len()];
            let b = row[(c + 1) % row.len()];
            *v = (a * b + 0.5 * a * a - b).tanh();
        }
    }
    (xs, ys)
}

fn oracle_epoch(setup: &BenchSetup, mlp: &mut Mlp, params: &mut [f64]) -> f64 {
    let n = setup.xs.rows();
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(BATCH) {
        mlp.set_params_flat(params).expect("param width");
        let mut bx = Matrix::zeros(chunk.len(), setup.xs.cols());
        let mut by = Matrix::zeros(chunk.len(), setup.ys.cols());
        for (out_r, &r) in chunk.iter().enumerate() {
            bx.row_mut(out_r).copy_from_slice(setup.xs.row(r));
            by.row_mut(out_r).copy_from_slice(setup.ys.row(r));
        }
        let (_, grads) = oracle::batch_gradient(mlp, &bx, &by, Loss::MeanSquared).expect("shapes");
        for (p, g) in params.iter_mut().zip(&grads) {
            *p -= setup.lr * g;
        }
    }
    mlp.set_params_flat(params).expect("param width");
    oracle::batch_loss(mlp, &setup.xs, &setup.ys, Loss::MeanSquared).expect("shapes")
}

struct BatchedScratch {
    ws: Workspace,
    engine: BandEngine,
    bx: Matrix,
    by: Matrix,
}

fn batched_epoch(
    setup: &BenchSetup,
    mlp: &mut Mlp,
    params: &mut [f64],
    scratch: &mut BatchedScratch,
) -> f64 {
    let n = setup.xs.rows();
    let indices: Vec<usize> = (0..n).collect();
    for chunk in indices.chunks(BATCH) {
        mlp.set_params_flat(params).expect("param width");
        scratch.bx.resize_rows(chunk.len());
        scratch.by.resize_rows(chunk.len());
        for (out_r, &r) in chunk.iter().enumerate() {
            scratch.bx.row_mut(out_r).copy_from_slice(setup.xs.row(r));
            scratch.by.row_mut(out_r).copy_from_slice(setup.ys.row(r));
        }
        scratch
            .engine
            .batch_gradient(
                mlp,
                &scratch.bx,
                &scratch.by,
                Loss::MeanSquared,
                &mut scratch.ws,
            )
            .expect("shapes");
        for (p, g) in params.iter_mut().zip(scratch.ws.grad()) {
            *p -= setup.lr * g;
        }
    }
    mlp.set_params_flat(params).expect("param width");
    scratch
        .engine
        .batch_loss(
            mlp,
            &setup.xs,
            &setup.ys,
            Loss::MeanSquared,
            &mut scratch.ws,
        )
        .expect("shapes")
}

fn bench_train_epoch(setup: &BenchSetup, repeats: usize, jobs: usize) -> (Summary, Summary, f64) {
    // Each arm trains its own clone from the same weights; per-epoch work
    // is shape-dependent only, so drifting parameters do not skew timing.
    let mut oracle_mlp = setup.mlp.clone();
    let mut oracle_params = oracle_mlp.params_flat();

    let mut fast_mlp = setup.mlp.clone();
    let mut fast_params = fast_mlp.params_flat();
    let mut scratch = BatchedScratch {
        ws: Workspace::for_mlp(&fast_mlp),
        engine: BandEngine::new(jobs),
        bx: Matrix::zeros(0, setup.xs.cols()),
        by: Matrix::zeros(0, setup.ys.cols()),
    };
    // Warm the workspace so the timed region is the steady state.
    batched_epoch(setup, &mut fast_mlp, &mut fast_params.clone(), &mut scratch);

    throughput_pair(
        repeats,
        1.0,
        || {
            oracle_epoch(setup, &mut oracle_mlp, &mut oracle_params);
        },
        || {
            batched_epoch(setup, &mut fast_mlp, &mut fast_params, &mut scratch);
        },
    )
}

fn bench_forward_batch(setup: &BenchSetup, repeats: usize, jobs: usize) -> (Summary, Summary, f64) {
    let rows = setup.xs.rows() as f64;
    let mut ws = Workspace::for_mlp(&setup.mlp);
    let mut engine = BandEngine::new(jobs);
    engine
        .forward_batch(&setup.mlp, &setup.xs, &mut ws)
        .expect("widths");

    throughput_pair(
        repeats,
        rows,
        || {
            for r in 0..setup.xs.rows() {
                let y = oracle::forward(&setup.mlp, setup.xs.row(r)).expect("widths");
                std::hint::black_box(&y);
            }
        },
        || {
            let out = engine
                .forward_batch(&setup.mlp, &setup.xs, &mut ws)
                .expect("widths");
            std::hint::black_box(out);
        },
    )
}

fn speedup_from(report: &Json, section: &str) -> Option<f64> {
    report.get(section)?.get("speedup")?.as_f64()
}

/// Report format version written by this binary. Version 2 added
/// `lanes`, `threads` and `band_rows` to `config` when the kernels
/// moved to lane-accumulator SIMD + band-parallel execution; ratios
/// measured under schema 1 timed different code and cannot gate this
/// binary.
const REPORT_SCHEMA: f64 = 2.0;

/// Rejects a committed reference whose schema or measurement geometry
/// does not match this run — comparing speedup ratios across either is
/// meaningless, and a clear message beats a mysterious gate failure.
fn validate_committed(committed: &Json, path: &str, jobs: usize) -> Result<(), String> {
    let schema = committed.get("schema").and_then(Json::as_f64);
    if schema != Some(REPORT_SCHEMA) {
        let found = schema.map_or_else(|| "missing".to_string(), |v| format!("{v}"));
        return Err(format!(
            "{path}: committed report schema is {found}, this binary writes schema \
             {REPORT_SCHEMA}; regenerate the committed report with `wlc bench`"
        ));
    }
    let committed_threads = committed
        .get("config")
        .and_then(|c| c.get("threads"))
        .and_then(Json::as_f64);
    if committed_threads != Some(jobs as f64) {
        let found = committed_threads.map_or_else(|| "missing".to_string(), |v| format!("{v}"));
        return Err(format!(
            "{path}: committed report was measured with threads={found} but this run uses \
             --jobs {jobs}; ratio gates only compare like with like"
        ));
    }
    Ok(())
}

pub fn run(raw: &[String]) -> CmdResult {
    let flags = parse_flags(raw, USAGE)?;
    let quick = flags.switch("quick");
    let (samples, repeats) = if quick { (512, 7) } else { (1024, 30) };
    let jobs: usize = flags.get_or("jobs", 1usize)?.max(1);
    let check: Option<String> =
        flags
            .get_or("check", String::new())
            .map(|s| if s.is_empty() { None } else { Some(s) })?;
    let out = if check.is_some() {
        "BENCH_nn.new.json"
    } else {
        "BENCH_nn.json"
    };

    let activation = Activation::relu();
    let (xs, ys) = synthetic(INPUTS, OUTPUTS, samples, 42);
    let mut builder = MlpBuilder::new(INPUTS).seed(9);
    for w in HIDDEN {
        builder = builder.hidden(w, activation);
    }
    let mlp = builder.output(OUTPUTS, Activation::identity()).build()?;
    let setup = BenchSetup {
        xs,
        ys,
        mlp,
        lr: 0.01,
    };

    eprintln!(
        "benchmarking topology {:?}, {samples} samples, batch {BATCH}, {repeats} repeats, \
         {jobs} band thread(s){}",
        setup.mlp.topology(),
        if quick { " (quick)" } else { "" }
    );

    // Parse the committed reference up front so a bad path fails before
    // any timing work.
    let committed = match &check {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let parsed = Json::parse(&text)
                .map_err(|reason| crate::args::ArgError(format!("bad {path}: {reason}")))?;
            validate_committed(&parsed, path, jobs).map_err(crate::args::ArgError)?;
            Some(parsed)
        }
        None => None,
    };

    // Under --check, a shared machine's load spikes can sink one
    // measurement below the gate even though the code is fine, so a
    // failing attempt is re-measured (up to three attempts) before the
    // gate reports a regression.
    let attempts = if committed.is_some() { 3 } else { 1 };
    let mut measured = None;
    let mut failures = Vec::new();
    for attempt in 1..=attempts {
        let (train_base, train_fast, train_speedup) = bench_train_epoch(&setup, repeats, jobs);
        println!(
            "train-epoch : baseline {:>8.2} epochs/s | batched {:>8.2} epochs/s | speedup {:.2}x",
            train_base.median, train_fast.median, train_speedup
        );
        let (fwd_base, fwd_fast, fwd_speedup) = bench_forward_batch(&setup, repeats, jobs);
        println!(
            "forward     : baseline {:>8.0} rows/s   | batched {:>8.0} rows/s   | speedup {:.2}x",
            fwd_base.median, fwd_fast.median, fwd_speedup
        );
        measured = Some((
            train_base,
            train_fast,
            train_speedup,
            fwd_base,
            fwd_fast,
            fwd_speedup,
        ));

        failures.clear();
        if let Some(committed) = &committed {
            if train_speedup < 3.0 {
                failures.push(format!(
                    "train-epoch speedup {train_speedup:.2}x is below the required 3x"
                ));
            }
            for (section, current) in [
                ("train_epoch", train_speedup),
                ("forward_batch", fwd_speedup),
            ] {
                if let Some(reference) = speedup_from(committed, section) {
                    let floor = 0.75 * reference;
                    if current < floor {
                        failures.push(format!(
                            "{section} speedup {current:.2}x regressed >25% vs committed \
                             {reference:.2}x (floor {floor:.2}x)"
                        ));
                    }
                }
            }
        }
        if failures.is_empty() {
            break;
        }
        if attempt < attempts {
            eprintln!(
                "speedup below the gate ({}); re-measuring (attempt {}/{attempts})",
                failures.join("; "),
                attempt + 1
            );
        }
    }
    let (train_base, train_fast, train_speedup, fwd_base, fwd_fast, fwd_speedup) =
        measured.expect("at least one attempt");

    let report = Json::obj([
        ("schema", Json::Num(REPORT_SCHEMA)),
        (
            "config",
            Json::obj([
                ("inputs", Json::Num(INPUTS as f64)),
                ("hidden", Json::nums(&HIDDEN.map(|w| w as f64))),
                ("outputs", Json::Num(OUTPUTS as f64)),
                ("samples", Json::Num(samples as f64)),
                ("batch", Json::Num(BATCH as f64)),
                ("repeats", Json::Num(repeats as f64)),
                ("activation", Json::Str(activation.to_string())),
                ("lanes", Json::Num(wlc_math::gemm::LANES as f64)),
                ("threads", Json::Num(jobs as f64)),
                ("band_rows", Json::Num(BAND_ROWS as f64)),
                ("quick", Json::Bool(quick)),
            ]),
        ),
        (
            "train_epoch",
            Json::obj([
                ("baseline_epochs_per_s", train_base.to_json()),
                ("batched_epochs_per_s", train_fast.to_json()),
                ("speedup", Json::Num(train_speedup)),
            ]),
        ),
        (
            "forward_batch",
            Json::obj([
                ("baseline_rows_per_s", fwd_base.to_json()),
                ("batched_rows_per_s", fwd_fast.to_json()),
                ("speedup", Json::Num(fwd_speedup)),
            ]),
        ),
    ]);
    // wlc-lint: allow(durable-write, reason = "bench report is a throwaway measurement artifact, not recovered state")
    std::fs::write(out, format!("{report}\n"))?;
    eprintln!("report written to {out}");

    if let Some(committed) = &committed {
        if !failures.is_empty() {
            return Err(failures.join("; ").into());
        }
        for (section, current) in [
            ("train_epoch", train_speedup),
            ("forward_batch", fwd_speedup),
        ] {
            if let Some(reference) = speedup_from(committed, section) {
                println!("check {section}: {current:.2}x vs committed {reference:.2}x — ok");
            }
        }
        println!("bench check passed");
    }
    Ok(())
}
