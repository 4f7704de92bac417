//! Determinism of parallel cross-validation and surface sweeps: reports
//! and grids must be bit-for-bit identical for any worker count, and a
//! panicking task must surface instead of hanging the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wlc_data::{Dataset, Sample};
use wlc_model::{
    evaluate_all, evaluate_all_jobs, CrossValidator, ModelError, PerformanceModel, ResponseSurface,
    WorkloadModelBuilder,
};

fn dataset(n: usize) -> Dataset {
    let mut ds =
        Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
    for i in 0..n {
        let a = (i % 7) as f64 + 1.0;
        let b = (i / 7) as f64 + 1.0;
        ds.push(Sample::new(vec![a, b], vec![a * a + b, a * b + 2.0]))
            .unwrap();
    }
    ds
}

fn builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(8)
        .max_epochs(200)
        .learning_rate(0.05)
}

#[test]
fn cross_validation_is_bit_identical_across_job_counts() {
    let ds = dataset(30);
    let serial = CrossValidator::new(builder())
        .seed(9)
        .jobs(1)
        .run(&ds)
        .unwrap();
    for jobs in [2, 5] {
        let parallel = CrossValidator::new(builder())
            .seed(9)
            .jobs(jobs)
            .run(&ds)
            .unwrap();
        assert_eq!(serial.trials().len(), parallel.trials().len());
        for (s, p) in serial.trials().iter().zip(parallel.trials()) {
            assert_eq!(s.fold, p.fold);
            assert_eq!(s.validation, p.validation, "jobs={jobs} fold {}", s.fold);
            assert_eq!(s.training, p.training);
            assert_eq!(
                s.train_report.loss_history, p.train_report.loss_history,
                "jobs={jobs} fold {}",
                s.fold
            );
        }
    }
}

/// Deterministic non-linear toy model, paper-shaped (4 in, 2 out).
struct Toy;
impl PerformanceModel for Toy {
    fn inputs(&self) -> usize {
        4
    }
    fn outputs(&self) -> usize {
        2
    }
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        Ok(vec![
            (x[1] - 9.0).powi(2) + (x[3] - 11.0).powi(2) + x[0] * 0.001,
            x[1] * x[3] + x[2],
        ])
    }
}

fn spec(output: usize) -> ResponseSurface {
    let axis: Vec<f64> = (4..=20).map(|v| v as f64).collect();
    ResponseSurface::new(
        vec![560.0, 10.0, 16.0, 10.0],
        1,
        axis.clone(),
        3,
        axis,
        output,
    )
    .unwrap()
}

#[test]
fn surface_is_bit_identical_across_job_counts() {
    let surface = spec(0);
    let serial = surface.evaluate(&Toy).unwrap();
    for jobs in [1, 3, 8] {
        assert_eq!(
            serial,
            surface.evaluate_jobs(&Toy, jobs).unwrap(),
            "jobs={jobs}"
        );
    }
}

#[test]
fn evaluate_all_is_bit_identical_across_job_counts() {
    let surface = spec(0);
    let serial = evaluate_all(&surface, &Toy).unwrap();
    for jobs in [1, 4] {
        let parallel = evaluate_all_jobs(&surface, &Toy, jobs).unwrap();
        assert_eq!(serial, parallel, "jobs={jobs}");
    }
}

/// Model that panics on one specific grid cell.
struct Grenade;
impl PerformanceModel for Grenade {
    fn inputs(&self) -> usize {
        4
    }
    fn outputs(&self) -> usize {
        2
    }
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        assert!(!(x[1] == 12.0 && x[3] == 7.0), "boom");
        Ok(vec![0.0, 0.0])
    }
}

#[test]
fn panic_in_worker_surfaces_instead_of_hanging() {
    let surface = spec(1);
    let result = catch_unwind(AssertUnwindSafe(|| surface.evaluate_jobs(&Grenade, 4)));
    assert!(result.is_err(), "worker panic was swallowed");
}

/// Model that fails (with an error, not a panic) on one grid row.
struct Flaky;
impl PerformanceModel for Flaky {
    fn inputs(&self) -> usize {
        4
    }
    fn outputs(&self) -> usize {
        2
    }
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x[1] >= 15.0 {
            return Err(ModelError::InvalidParameter {
                name: "x1",
                reason: "unsupported operating point",
            });
        }
        Ok(vec![x[1], x[3]])
    }
}

#[test]
fn prediction_error_matches_sequential() {
    let surface = spec(0);
    let serial = surface.evaluate(&Flaky).unwrap_err();
    let parallel = surface.evaluate_jobs(&Flaky, 4).unwrap_err();
    assert_eq!(format!("{serial}"), format!("{parallel}"));
}
