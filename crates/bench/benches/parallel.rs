//! Worker-pool speedup benchmark: the same ≥64-point design sweep, the
//! same cross validation and the same surface sweep, serially and on the
//! pool (the surface on a `BandEngine` team). On a ≥4-core machine the
//! sweep is expected to finish >2× faster with the default worker count;
//! determinism tests elsewhere guarantee the outputs are bit-identical
//! either way.
//!
//! Set `WLC_BENCH_JOBS` to override the parallel worker count.

use std::time::{Duration, Instant};

use wlc_bench::paper_design;
use wlc_model::{CrossValidator, ResponseSurface, WorkloadModelBuilder};
use wlc_nn::BandEngine;
use wlc_sim::run_design_jobs;

fn parallel_jobs() -> usize {
    std::env::var("WLC_BENCH_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(wlc_exec::default_jobs)
        .max(1)
}

fn timed<O>(f: impl FnOnce() -> O) -> (O, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn report(name: &str, serial: Duration, parallel: Duration, jobs: usize) {
    println!(
        "{name:<34} jobs=1 {:>8.3} s   jobs={jobs} {:>8.3} s   speedup {:.2}x",
        serial.as_secs_f64(),
        parallel.as_secs_f64(),
        serial.as_secs_f64() / parallel.as_secs_f64()
    );
}

fn bench_design_sweep(jobs: usize) {
    // The acceptance-scale sweep: 64 configurations, short runs so the
    // bench stays tractable while each task is still non-trivial.
    let configs = paper_design(64, 5).expect("valid design");
    let (serial_ds, serial) = timed(|| run_design_jobs(&configs, 3, 3.0, 0.5, 1).unwrap());
    let (parallel_ds, parallel) = timed(|| run_design_jobs(&configs, 3, 3.0, 0.5, jobs).unwrap());
    assert_eq!(serial_ds, parallel_ds, "parallel sweep changed the data");
    report("parallel/design_sweep_64", serial, parallel, jobs);
}

fn bench_cross_validation(jobs: usize) {
    let configs = paper_design(40, 5).expect("valid design");
    let dataset = run_design_jobs(&configs, 3, 2.0, 0.5, jobs).expect("runs succeed");
    let builder = WorkloadModelBuilder::new()
        .max_epochs(800)
        .learning_rate(0.03)
        .optimizer(wlc_nn::OptimizerKind::adam());
    let cv = |jobs: usize| {
        CrossValidator::new(builder.clone())
            .jobs(jobs)
            .run(&dataset)
            .unwrap()
    };
    let (serial_report, serial) = timed(|| cv(1));
    let (parallel_report, parallel) = timed(|| cv(jobs));
    assert_eq!(
        serial_report.average_errors(),
        parallel_report.average_errors(),
        "parallel CV changed the report"
    );
    report("parallel/cross_validate_5_fold", serial, parallel, jobs);
}

fn bench_surface(jobs: usize) {
    let configs = paper_design(40, 5).expect("valid design");
    let dataset = run_design_jobs(&configs, 3, 2.0, 0.5, jobs).expect("runs succeed");
    let model = WorkloadModelBuilder::new()
        .max_epochs(2000)
        .train(&dataset)
        .expect("training succeeds")
        .model;
    let axis: Vec<f64> = (0..65).map(|i| 4.0 + i as f64 * 0.25).collect();
    let surface = ResponseSurface::new(vec![560.0, 10.0, 16.0, 10.0], 1, axis.clone(), 3, axis, 1)
        .expect("valid surface");
    let sweep = |jobs: usize| {
        let mut engine = BandEngine::new(jobs);
        surface.evaluate_banded(&model, &mut engine).unwrap()
    };
    let (serial_grid, serial) = timed(|| sweep(1));
    let (parallel_grid, parallel) = timed(|| sweep(jobs));
    assert_eq!(
        serial_grid, parallel_grid,
        "parallel sweep changed the grid"
    );
    report("parallel/surface_65x65", serial, parallel, jobs);
}

fn main() {
    let jobs = parallel_jobs();
    println!(
        "worker-pool speedups ({} core(s) visible, parallel runs use {jobs} worker(s))",
        wlc_exec::default_jobs()
    );
    bench_design_sweep(jobs);
    bench_cross_validation(jobs);
    bench_surface(jobs);
}
