//! Property-based tests for datasets, scalers, splits and metrics, on
//! the seeded [`propcheck`] harness.

use wlc_data::metrics;
use wlc_data::{train_test_split, Dataset, KFold, Sample, Scaler};
use wlc_math::propcheck::{self, Gen};
use wlc_math::rng::Seed;
use wlc_math::Matrix;

fn random_dataset(g: &mut Gen) -> Dataset {
    let xw = g.usize_in(1, 5);
    let yw = g.usize_in(1, 4);
    let n = g.usize_in(2, 20);
    let mut ds = Dataset::new(
        (0..xw).map(|i| format!("x{i}")).collect(),
        (0..yw).map(|i| format!("y{i}")).collect(),
    )
    .expect("valid names");
    for _ in 0..n {
        let x = g.vec_f64(-1e3, 1e3, xw);
        let y = g.vec_f64(-1e3, 1e3, yw);
        ds.push(Sample::new(x, y)).expect("widths match");
    }
    ds
}

#[test]
fn csv_roundtrip_any_dataset() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let back = Dataset::from_csv_string(&ds.to_csv_string()).unwrap();
        assert_eq!(back, ds);
    });
}

#[test]
fn matrices_roundtrip() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (xs, ys) = ds.to_matrices();
        let back = Dataset::from_matrices(
            ds.input_names().to_vec(),
            ds.output_names().to_vec(),
            &xs,
            &ys,
        )
        .unwrap();
        assert_eq!(back, ds);
    });
}

#[test]
fn standard_scaler_roundtrips() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (xs, _) = ds.to_matrices();
        let scaler = Scaler::standard_fit(&xs).unwrap();
        let back = scaler
            .inverse_transform(&scaler.transform(&xs).unwrap())
            .unwrap();
        for r in 0..xs.rows() {
            for c in 0..xs.cols() {
                let orig = xs.get(r, c);
                assert!((back.get(r, c) - orig).abs() < 1e-6 * (1.0 + orig.abs()));
            }
        }
    });
}

#[test]
fn standard_scaler_zero_mean_unit_std() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (xs, _) = ds.to_matrices();
        let scaler = Scaler::standard_fit(&xs).unwrap();
        let t = scaler.transform(&xs).unwrap();
        for c in 0..t.cols() {
            let col = t.col_to_vec(c);
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-7, "column {c} mean {mean}");
            let var = col.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / col.len() as f64;
            // Constant columns are mapped to variance 0; otherwise 1.
            assert!(
                var.abs() < 1e-7 || (var - 1.0).abs() < 1e-6,
                "column {c} var {var}"
            );
        }
    });
}

#[test]
fn min_max_scaler_bounds() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (xs, _) = ds.to_matrices();
        let scaler = Scaler::min_max_fit(&xs).unwrap();
        let t = scaler.transform(&xs).unwrap();
        for &v in t.as_slice() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    });
}

#[test]
fn scaler_text_roundtrip() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (xs, _) = ds.to_matrices();
        for scaler in [
            Scaler::standard_fit(&xs).unwrap(),
            Scaler::min_max_fit(&xs).unwrap(),
            Scaler::identity(xs.cols()),
        ] {
            let back = Scaler::from_text(&scaler.to_text()).unwrap();
            assert_eq!(back, scaler);
        }
    });
}

#[test]
fn kfold_is_exact_partition() {
    propcheck::run_cases(48, |g| {
        let n = g.usize_in(4, 60);
        let k = g.usize_in(2, 6);
        if k > n {
            return;
        }
        let kf = KFold::new(n, k, Seed::new(g.u64())).unwrap();
        let mut seen = vec![0usize; n];
        for (train, val) in kf.folds() {
            assert_eq!(train.len() + val.len(), n);
            for v in val {
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    });
}

#[test]
fn split_partitions() {
    propcheck::run_cases(48, |g| {
        let n = g.usize_in(1, 100);
        let frac = g.f64_in(0.0, 0.95);
        let (train, test) = train_test_split(n, frac, Seed::new(g.u64())).unwrap();
        assert_eq!(train.len() + test.len(), n);
        assert!(!train.is_empty());
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn subset_preserves_selected_samples() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let seed = g.u64();
        let n = ds.len();
        let idx: Vec<usize> = (0..n)
            .filter(|i| !(i + seed as usize).is_multiple_of(3))
            .collect();
        if idx.is_empty() {
            return;
        }
        let sub = ds.subset(&idx).unwrap();
        assert_eq!(sub.len(), idx.len());
        for (out_i, &src_i) in idx.iter().enumerate() {
            assert_eq!(&sub.samples()[out_i], &ds.samples()[src_i]);
        }
    });
}

#[test]
fn mape_zero_iff_exact() {
    propcheck::run_cases(48, |g| {
        let values = g.vec_f64_len(0.1, 1e3, 1, 10);
        let exact = metrics::mape(&values, &values).unwrap();
        assert!(exact.abs() < 1e-12);
        let off: Vec<f64> = values.iter().map(|v| v * 1.1).collect();
        let e = metrics::mape(&values, &off).unwrap();
        assert!((e - 0.1).abs() < 1e-9);
    });
}

#[test]
fn harmonic_error_bounded_by_arithmetic() {
    propcheck::run_cases(48, |g| {
        let actual = g.vec_f64_len(0.1, 1e3, 2, 10);
        let scale = g.vec_f64_len(0.5, 2.0, 2, 10);
        let n = actual.len().min(scale.len());
        let predicted: Vec<f64> = actual[..n]
            .iter()
            .zip(&scale[..n])
            .map(|(a, s)| a * s)
            .collect();
        let hm = metrics::harmonic_mean_relative_error(&actual[..n], &predicted);
        let am = metrics::mape(&actual[..n], &predicted);
        if let (Ok(hm), Ok(am)) = (hm, am) {
            assert!(hm <= am * (1.0 + 1e-9), "hm {hm} am {am}");
        }
    });
}

#[test]
fn error_report_consistent_with_columnwise() {
    propcheck::run_cases(48, |g| {
        let ds = random_dataset(g);
        let (_, ys) = ds.to_matrices();
        if !ys.as_slice().iter().all(|&v| v.abs() > 1e-3) {
            return;
        }
        let predicted = Matrix::from_fn(ys.rows(), ys.cols(), |r, c| ys.get(r, c) * 1.05);
        let report = metrics::ErrorReport::compare(ds.output_names(), &ys, &predicted).unwrap();
        for out in report.outputs() {
            assert!((out.harmonic_mean_error - 0.05).abs() < 1e-9);
        }
        assert!((report.overall_error() - 0.05).abs() < 1e-9);
    });
}
