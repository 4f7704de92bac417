//! Property-based tests for the math substrate, on the seeded
//! [`propcheck`] harness.

use wlc_math::linalg::{cholesky, ridge, solve};
use wlc_math::propcheck::{self, Gen};
use wlc_math::rng::{Seed, Xoshiro256};
use wlc_math::stats::{self, OnlineStats};
use wlc_math::Matrix;

fn finite_vec(g: &mut Gen, len: usize) -> Vec<f64> {
    g.vec_f64(-1e6, 1e6, len)
}

#[test]
fn transpose_is_involution() {
    propcheck::run_cases(64, |g| {
        let (rows, cols) = (g.usize_in(1, 8), g.usize_in(1, 8));
        let mut rng = Xoshiro256::seed_from(g.u64());
        let m = Matrix::from_fn(rows, cols, |_, _| rng.next_range(-10.0, 10.0));
        assert_eq!(m.transpose().transpose(), m);
    });
}

#[test]
fn matmul_identity_left_right() {
    propcheck::run_cases(64, |g| {
        let n = g.usize_in(1, 7);
        let mut rng = Xoshiro256::seed_from(g.u64());
        let m = Matrix::from_fn(n, n, |_, _| rng.next_range(-5.0, 5.0));
        let i = Matrix::identity(n);
        assert_eq!(m.matmul(&i).unwrap(), m.clone());
        assert_eq!(i.matmul(&m).unwrap(), m);
    });
}

#[test]
fn matmul_associates_with_matvec() {
    propcheck::run_cases(64, |g| {
        let n = g.usize_in(1, 6);
        let mut rng = Xoshiro256::seed_from(g.u64());
        let a = Matrix::from_fn(n, n, |_, _| rng.next_range(-2.0, 2.0));
        let b = Matrix::from_fn(n, n, |_, _| rng.next_range(-2.0, 2.0));
        let v: Vec<f64> = (0..n).map(|_| rng.next_range(-2.0, 2.0)).collect();
        // (A·B)·v == A·(B·v)
        let left = a.matmul(&b).unwrap().matvec(&v).unwrap();
        let right = a.matvec(&b.matvec(&v).unwrap()).unwrap();
        for (l, r) in left.iter().zip(right.iter()) {
            assert!((l - r).abs() < 1e-8 * (1.0 + l.abs()));
        }
    });
}

#[test]
fn solve_recovers_known_solution() {
    propcheck::run_cases(64, |g| {
        let n = g.usize_in(1, 6);
        let mut rng = Xoshiro256::seed_from(g.u64());
        // Diagonally dominant => well-conditioned and non-singular.
        let mut a = Matrix::from_fn(n, n, |_, _| rng.next_range(-1.0, 1.0));
        for i in 0..n {
            let v = a.get(i, i) + (n as f64 + 1.0);
            a.set(i, i, v);
        }
        let x: Vec<f64> = (0..n).map(|_| rng.next_range(-3.0, 3.0)).collect();
        let b = a.matvec(&x).unwrap();
        let solved = solve(&a, &b).unwrap();
        for (s, t) in solved.iter().zip(x.iter()) {
            assert!((s - t).abs() < 1e-7, "{s} vs {t}");
        }
    });
}

#[test]
fn cholesky_roundtrip_on_gram_matrices() {
    propcheck::run_cases(64, |g| {
        let n = g.usize_in(1, 6);
        let mut rng = Xoshiro256::seed_from(g.u64());
        // B Bᵀ + I is symmetric positive definite.
        let b = Matrix::from_fn(n, n, |_, _| rng.next_range(-1.0, 1.0));
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            let v = a.get(i, i) + 1.0;
            a.set(i, i, v);
        }
        let l = cholesky(&a).unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                assert!((back.get(i, j) - a.get(i, j)).abs() < 1e-8);
            }
        }
    });
}

#[test]
fn lstsq_residual_is_orthogonal_to_columns() {
    propcheck::run_cases(64, |g| {
        let (rows, cols) = (g.usize_in(4, 10), g.usize_in(1, 4));
        let mut rng = Xoshiro256::seed_from(g.u64());
        let x = Matrix::from_fn(rows, cols, |_, _| rng.next_range(-3.0, 3.0));
        let y: Vec<f64> = (0..rows).map(|_| rng.next_range(-3.0, 3.0)).collect();
        let w = ridge(&x, &y, 0.0).unwrap();
        let pred = x.matvec(&w).unwrap();
        let resid: Vec<f64> = y.iter().zip(pred.iter()).map(|(a, p)| a - p).collect();
        let grad = x.transpose().matvec(&resid).unwrap();
        for g in grad {
            assert!(g.abs() < 1e-6, "normal equations violated: {g}");
        }
    });
}

#[test]
fn mean_bounded_by_min_max() {
    propcheck::run_cases(64, |g| {
        let values = finite_vec(g, 12);
        let m = stats::mean(&values).unwrap();
        let lo = stats::min(&values).unwrap();
        let hi = stats::max(&values).unwrap();
        assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    });
}

#[test]
fn mean_inequalities_hold() {
    propcheck::run_cases(64, |g| {
        let values = g.vec_f64_len(0.001, 1e3, 1, 20);
        let h = stats::harmonic_mean(&values).unwrap();
        let a = stats::mean(&values).unwrap();
        assert!(h <= a * (1.0 + 1e-9));
    });
}

#[test]
fn online_stats_matches_batch() {
    propcheck::run_cases(64, |g| {
        let values = finite_vec(g, 20);
        let mut acc = OnlineStats::new();
        for &v in &values {
            acc.push(v);
        }
        let batch_mean = stats::mean(&values).unwrap();
        let batch_var = stats::variance_population(&values).unwrap();
        assert!((acc.mean() - batch_mean).abs() < 1e-6 * (1.0 + batch_mean.abs()));
        assert!((acc.variance() - batch_var).abs() < 1e-4 * (1.0 + batch_var));
    });
}

#[test]
fn online_merge_equals_concatenation() {
    propcheck::run_cases(64, |g| {
        let a = finite_vec(g, 10);
        let b = finite_vec(g, 7);
        let mut left = OnlineStats::new();
        for &v in &a {
            left.push(v);
        }
        let mut right = OnlineStats::new();
        for &v in &b {
            right.push(v);
        }
        left.merge(&right);
        let mut combined = OnlineStats::new();
        for &v in a.iter().chain(b.iter()) {
            combined.push(v);
        }
        assert!((left.mean() - combined.mean()).abs() < 1e-6 * (1.0 + combined.mean().abs()));
        assert!((left.variance() - combined.variance()).abs() < 1e-4 * (1.0 + combined.variance()));
    });
}

#[test]
fn percentile_is_monotone() {
    propcheck::run_cases(64, |g| {
        let values = finite_vec(g, 15);
        let (p1, p2) = (g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = stats::percentile(&values, lo).unwrap();
        let b = stats::percentile(&values, hi).unwrap();
        assert!(a <= b + 1e-9);
    });
}

#[test]
fn shuffle_preserves_multiset() {
    propcheck::run_cases(64, |g| {
        let n = g.usize_in(1, 50);
        let mut rng = Xoshiro256::seed_from(g.u64());
        let mut v: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn next_below_in_bounds() {
    propcheck::run_cases(64, |g| {
        let bound = g.u64_in(1, 1000);
        let mut rng = Xoshiro256::seed_from(g.u64());
        for _ in 0..50 {
            assert!(rng.next_below(bound) < bound);
        }
    });
}

#[test]
fn seed_derivation_is_deterministic() {
    propcheck::run_cases(64, |g| {
        let (root, stream) = (g.u64(), g.u64());
        let a = Seed::new(root).derive(stream);
        let b = Seed::new(root).derive(stream);
        assert_eq!(a, b);
    });
}

#[test]
fn r_squared_at_most_one() {
    propcheck::run_cases(64, |g| {
        let actual = finite_vec(g, 8);
        let noise = finite_vec(g, 8);
        let predicted: Vec<f64> = actual
            .iter()
            .zip(noise.iter())
            .map(|(a, n)| a + n * 0.1)
            .collect();
        if let Ok(r2) = stats::r_squared(&actual, &predicted) {
            assert!(r2 <= 1.0 + 1e-9);
        }
    });
}
