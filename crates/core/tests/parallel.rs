//! Determinism of parallel cross-validation and surface sweeps: reports
//! and grids must be bit-for-bit identical for any worker count, and a
//! batched sweep must fail the way a per-cell sweep would.

use wlc_data::{Dataset, Sample};
use wlc_model::{
    evaluate_all, CrossValidator, ModelError, PerformanceModel, ResponseSurface, WorkloadModel,
    WorkloadModelBuilder,
};
use wlc_nn::BandEngine;

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

/// A quickly trained 2-input, 2-output network.
fn trained() -> WorkloadModel {
    builder().seed(3).train(&dataset(30)).unwrap().model
}

/// Both axes of [`grid`].
fn grid_axis() -> Vec<f64> {
    (0..17).map(|v| 1.0 + v as f64 * 0.375).collect()
}

/// 17 x 17 cells over both inputs: five 64-row bands, the last ragged.
fn grid(output: usize) -> ResponseSurface {
    ResponseSurface::new(vec![0.0, 0.0], 0, grid_axis(), 1, grid_axis(), output).unwrap()
}

/// Output `output` of per-cell `predict`, row-major.
fn per_cell(model: &WorkloadModel, output: usize) -> Vec<f64> {
    let axis = grid_axis();
    axis.iter()
        .flat_map(|&a| {
            axis.iter()
                .map(move |&b| model.predict(&[a, b]).unwrap()[output])
        })
        .collect()
}

#[test]
fn surface_is_bit_identical_across_job_counts() {
    let model = trained();
    let surface = grid(0);
    let reference = per_cell(&model, 0);
    assert_eq!(
        surface.evaluate(&model).unwrap().z().as_slice(),
        &reference[..]
    );
    for jobs in [1, 3, 8] {
        let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
        let banded = surface.evaluate_banded(&model, &mut engine).unwrap();
        assert_eq!(banded.z().as_slice(), &reference[..], "jobs={jobs}");
    }
}

#[test]
fn evaluate_all_is_bit_identical_across_job_counts() {
    let model = trained();
    let all = evaluate_all(&grid(0), &model).unwrap();
    assert_eq!(all.len(), 2);
    for (output, surface) in all.iter().enumerate() {
        let reference = per_cell(&model, output);
        assert_eq!(surface.z().as_slice(), &reference[..], "output {output}");
        for jobs in [1, 4] {
            let mut engine = BandEngine::with_dispatch_threshold(jobs, 2);
            let banded = grid(output).evaluate_banded(&model, &mut engine).unwrap();
            assert_eq!(
                banded.z().as_slice(),
                &reference[..],
                "output {output} jobs={jobs}"
            );
        }
    }
}

/// Both axes of [`spec`]: queue sizes 4 to 20.
fn queue_axis() -> Vec<f64> {
    (4..=20).map(|v| v as f64).collect()
}

/// Paper-shaped sweep (4 in, 2 out) over the default and web queues.
fn spec(output: usize) -> ResponseSurface {
    let base = vec![560.0, 10.0, 16.0, 10.0];
    ResponseSurface::new(base, 1, queue_axis(), 3, queue_axis(), output).unwrap()
}

/// Model that fails on part of the grid, naming the failing cell.
struct Flaky;
impl PerformanceModel for Flaky {
    fn inputs(&self) -> usize {
        4
    }
    fn outputs(&self) -> usize {
        2
    }
    fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
        if x[1] + x[3] >= 30.0 {
            let cell = format!("unsupported cell ({}, {})", x[1], x[3]);
            return Err(ModelError::Io(std::io::Error::other(cell)));
        }
        Ok(vec![x[1], x[3]])
    }
}

#[test]
fn prediction_error_matches_sequential() {
    // The batched sweep fails with the error of the first failing cell
    // in row-major order — (10, 20), not (20, 10) or the last one.
    let axis = queue_axis();
    let sequential = axis
        .iter()
        .flat_map(|&a| axis.iter().map(move |&b| [560.0, a, 16.0, b]))
        .find_map(|x| Flaky.predict(&x).err())
        .unwrap()
        .to_string();
    assert!(sequential.contains("(10, 20)"), "{sequential}");
    let batched = spec(0).evaluate(&Flaky).unwrap_err();
    assert_eq!(batched.to_string(), sequential);
    let all = evaluate_all(&spec(1), &Flaky).unwrap_err();
    assert_eq!(all.to_string(), sequential);
}
