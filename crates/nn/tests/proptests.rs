//! Property-based tests for the neural-network crate: gradient
//! correctness on random topologies, serialization roundtrips, and
//! activation invariants — on the seeded [`propcheck`] harness.

use wlc_math::propcheck::{self, Gen};
use wlc_math::Matrix;
use wlc_nn::{gradcheck, Activation, Loss, Mlp, MlpBuilder, OptimizerKind, Workspace};

fn random_data(inputs: usize, outputs: usize, rows: usize, salt: u64) -> (Matrix, Matrix) {
    let xs = Matrix::from_fn(rows, inputs, |r, c| {
        (((r as u64 * 31 + c as u64 * 17 + salt) % 23) as f64) / 23.0 - 0.5
    });
    let ys = Matrix::from_fn(rows, outputs, |r, c| {
        (((r as u64 * 13 + c as u64 * 7 + salt) % 19) as f64) / 19.0
    });
    (xs, ys)
}

fn hidden_activation(g: &mut Gen) -> Activation {
    match g.usize_in(0, 3) {
        0 => Activation::logistic(),
        1 => Activation::logistic_with_slope(g.f64_in(0.5, 4.0)).expect("positive slope"),
        _ => Activation::Tanh,
    }
}

#[test]
fn backprop_matches_finite_differences() {
    propcheck::run_cases(24, |g| {
        let inputs = g.usize_in(1, 4);
        let hidden = g.usize_in(1, 8);
        let outputs = g.usize_in(1, 4);
        let activation = hidden_activation(g);
        let seed = g.u64();
        let mlp = MlpBuilder::new(inputs)
            .hidden(hidden, activation)
            .output(outputs, Activation::identity())
            .seed(seed)
            .build()
            .unwrap();
        // One band, then three bands with a ragged last one, so the
        // band fold is checked against finite differences too.
        for rows in [5, g.usize_in(130, 192)] {
            let (xs, ys) = random_data(inputs, outputs, rows, seed);
            let report = gradcheck::check(&mlp, &xs, &ys, Loss::MeanSquared, 1e-5).unwrap();
            assert!(report.passes(1e-5), "{rows} rows: {report:?}");
        }
    });
}

#[test]
fn serialization_roundtrip_any_topology() {
    propcheck::run_cases(24, |g| {
        let inputs = g.usize_in(1, 5);
        let h1 = g.usize_in(1, 10);
        let h2 = g.usize_in(1, 10);
        let outputs = g.usize_in(1, 5);
        let mlp = MlpBuilder::new(inputs)
            .hidden(h1, Activation::logistic())
            .hidden(h2, Activation::Tanh)
            .output(outputs, Activation::identity())
            .seed(g.u64())
            .build()
            .unwrap();
        let back = Mlp::from_text(&mlp.to_text()).unwrap();
        assert_eq!(&back, &mlp);
        // Bit-identical predictions.
        let x: Vec<f64> = (0..inputs).map(|i| i as f64 * 0.1 - 0.2).collect();
        assert_eq!(back.forward(&x[..]).unwrap(), mlp.forward(&x[..]).unwrap());
    });
}

#[test]
fn from_text_never_panics_on_mutated_input() {
    // Fuzz the model parser with systematically corrupted serializations:
    // truncation, dropped/duplicated lines, poisoned tokens, flipped
    // characters and pure garbage. The parser must return a typed error or
    // a well-formed network — never panic, and never accept NaN/Inf.
    propcheck::run_cases(96, |g| {
        let mlp = MlpBuilder::new(g.usize_in(1, 4))
            .hidden(g.usize_in(1, 6), Activation::Tanh)
            .output(g.usize_in(1, 3), Activation::identity())
            .seed(g.u64())
            .build()
            .unwrap();
        let text = mlp.to_text();
        let mutated = match g.usize_in(0, 5) {
            0 => {
                // Truncate at an arbitrary character boundary.
                let cut = g.usize_in(0, text.chars().count());
                text.chars().take(cut).collect::<String>()
            }
            1 => {
                // Drop one line.
                let lines: Vec<&str> = text.lines().collect();
                let drop = g.usize_in(0, lines.len() - 1);
                lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, l)| *l)
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            2 => {
                // Poison one weight row with a hostile token.
                let poison = ["NaN", "inf", "-inf", "1e999", "x", "--"][g.usize_in(0, 5)];
                text.replacen("w ", &format!("w {poison} "), 1)
            }
            3 => {
                // Duplicate one line.
                let lines: Vec<&str> = text.lines().collect();
                let dup = g.usize_in(0, lines.len() - 1);
                let mut out: Vec<&str> = Vec::new();
                for (i, l) in lines.iter().enumerate() {
                    out.push(l);
                    if i == dup {
                        out.push(l);
                    }
                }
                out.join("\n")
            }
            4 => {
                // Overwrite one character.
                let chars: Vec<char> = text.chars().collect();
                let pos = g.usize_in(0, chars.len() - 1);
                let sub = ['\0', 'z', '9', '.', '-', ' ', '\n'][g.usize_in(0, 6)];
                chars
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| if i == pos { sub } else { c })
                    .collect()
            }
            _ => {
                // Pure printable garbage.
                let len = g.usize_in(0, 64);
                (0..len)
                    .map(|_| char::from(g.usize_in(32, 126) as u8))
                    .collect()
            }
        };
        if let Ok(parsed) = Mlp::from_text(&mutated) {
            // Rarely a mutation is still valid — then the result must be a
            // usable network with finite parameters.
            assert!(parsed.param_count() > 0);
            assert!(parsed.params_flat().iter().all(|p| p.is_finite()));
        }
    });
}

#[test]
fn params_roundtrip_preserves_behaviour() {
    propcheck::run_cases(24, |g| {
        let inputs = g.usize_in(1, 4);
        let hidden = g.usize_in(1, 8);
        let seed = g.u64();
        let probe = g.vec_f64(-2.0, 2.0, 3);
        let src = MlpBuilder::new(inputs)
            .hidden(hidden, Activation::Tanh)
            .output(2, Activation::identity())
            .seed(seed)
            .build()
            .unwrap();
        let mut dst = MlpBuilder::new(inputs)
            .hidden(hidden, Activation::Tanh)
            .output(2, Activation::identity())
            .seed(seed.wrapping_add(1))
            .build()
            .unwrap();
        dst.set_params_flat(&src.params_flat()).unwrap();
        let x: Vec<f64> = probe
            .into_iter()
            .take(inputs)
            .chain(std::iter::repeat(0.0))
            .take(inputs)
            .collect();
        assert_eq!(dst.forward(&x[..]).unwrap(), src.forward(&x[..]).unwrap());
    });
}

#[test]
fn logistic_is_monotone() {
    propcheck::run_cases(64, |g| {
        let slope = g.f64_in(0.1, 10.0);
        let a = g.f64_in(-10.0, 10.0);
        let b = g.f64_in(-10.0, 10.0);
        let act = Activation::logistic_with_slope(slope).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(act.apply(lo) <= act.apply(hi) + 1e-12);
    });
}

#[test]
fn sgd_step_reduces_quadratic_loss() {
    propcheck::run_cases(24, |g| {
        let inputs = g.usize_in(1, 4);
        let hidden = g.usize_in(2, 8);
        let seed = g.u64();
        // One small full-batch gradient step must not increase the loss
        // (for a sufficiently small learning rate on a smooth model).
        let mut mlp = MlpBuilder::new(inputs)
            .hidden(hidden, Activation::Tanh)
            .output(1, Activation::identity())
            .seed(seed)
            .build()
            .unwrap();
        let (xs, ys) = random_data(inputs, 1, 6, seed);
        let mut ws = Workspace::for_mlp(&mlp);
        let before = mlp
            .batch_gradient_with(&xs, &ys, Loss::MeanSquared, &mut ws)
            .unwrap();
        let mut params = mlp.params_flat();
        OptimizerKind::Sgd
            .into_optimizer()
            .step(&mut params, ws.grad(), 1e-3)
            .unwrap();
        mlp.set_params_flat(&params).unwrap();
        let after = mlp
            .batch_loss_with(&xs, &ys, Loss::MeanSquared, &mut ws)
            .unwrap();
        assert!(after <= before + 1e-9, "{before} -> {after}");
    });
}

#[test]
fn loss_is_nonnegative_and_zero_at_target() {
    propcheck::run_cases(64, |g| {
        let target = g.vec_f64_len(-5.0, 5.0, 1, 6);
        let offset = g.vec_f64_len(-2.0, 2.0, 1, 6);
        let n = target.len().min(offset.len());
        let target = &target[..n];
        let predicted: Vec<f64> = target
            .iter()
            .zip(&offset[..n])
            .map(|(t, o)| t + o)
            .collect();
        let loss = Loss::MeanSquared;
        let v = loss.value(&predicted, target).unwrap();
        assert!(v >= 0.0);
        let zero = loss.value(target, target).unwrap();
        assert!(zero.abs() < 1e-12);
    });
}
