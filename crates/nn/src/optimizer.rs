//! Parameter-update rules for gradient-based training.
//!
//! The paper trains with plain gradient-descent back-propagation (§2.2);
//! that is [`OptimizerKind::Sgd`]. Momentum and Adam are provided
//! for the ablation benchmarks that examine how much the training method
//! matters for the workload-model use case.

use wlc_math::elementary::powu;

use crate::NnError;

/// Selects and parameterizes an update rule. Convert into a stateful
/// [`Optimizer`] with [`OptimizerKind::into_optimizer`].
///
/// # Examples
///
/// ```
/// use wlc_nn::OptimizerKind;
///
/// let mut opt = OptimizerKind::Adam {
///     beta1: 0.9,
///     beta2: 0.999,
///     epsilon: 1e-8,
/// }
/// .into_optimizer();
/// let mut params = vec![1.0, -1.0];
/// opt.step(&mut params, &[0.5, -0.5], 0.1).unwrap();
/// assert!(params[0] < 1.0);
/// assert!(params[1] > -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent: `p ← p − lr·g`.
    Sgd,
    /// Gradient descent with classical momentum.
    Momentum {
        /// Momentum coefficient, typically 0.9.
        beta: f64,
    },
    /// Adam: momentum + RMS scaling with bias correction.
    Adam {
        /// First-moment decay, typically 0.9.
        beta1: f64,
        /// Second-moment decay, typically 0.999.
        beta2: f64,
        /// Numerical-stability constant.
        epsilon: f64,
    },
}

impl OptimizerKind {
    /// The conventional Adam configuration.
    pub fn adam() -> Self {
        OptimizerKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }

    /// Momentum with the conventional 0.9 coefficient.
    pub fn momentum() -> Self {
        OptimizerKind::Momentum { beta: 0.9 }
    }

    /// Creates the stateful optimizer for this configuration.
    pub fn into_optimizer(self) -> Optimizer {
        Optimizer {
            kind: self,
            velocity: Vec::new(),
            second_moment: Vec::new(),
            step_count: 0,
        }
    }

    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidHyperParameter`] for out-of-range decay
    /// rates or non-positive epsilons.
    pub fn validate(&self) -> Result<(), NnError> {
        let check_unit = |v: f64, name: &'static str| -> Result<(), NnError> {
            if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                return Err(NnError::InvalidHyperParameter {
                    name,
                    reason: "must be in [0, 1)",
                });
            }
            Ok(())
        };
        match *self {
            OptimizerKind::Sgd => Ok(()),
            OptimizerKind::Momentum { beta } => check_unit(beta, "beta"),
            OptimizerKind::Adam {
                beta1,
                beta2,
                epsilon,
            } => {
                check_unit(beta1, "beta1")?;
                check_unit(beta2, "beta2")?;
                if !(epsilon.is_finite() && epsilon > 0.0) {
                    return Err(NnError::InvalidHyperParameter {
                        name: "epsilon",
                        reason: "must be positive",
                    });
                }
                Ok(())
            }
        }
    }
}

impl Default for OptimizerKind {
    /// Plain gradient descent — the paper's training method.
    fn default() -> Self {
        OptimizerKind::Sgd
    }
}

/// A stateful optimizer produced by [`OptimizerKind::into_optimizer`].
///
/// State buffers are allocated lazily on the first [`Optimizer::step`]
/// call and sized to the parameter vector.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    velocity: Vec<f64>,
    second_moment: Vec<f64>,
    step_count: u64,
}

impl Optimizer {
    /// The configuration this optimizer was created from.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Snapshot of the internal state for checkpointing:
    /// `(velocity, second_moment, step_count)`. Buffers are empty until
    /// the first [`Optimizer::step`] (or for kinds that do not use them).
    pub fn state(&self) -> (&[f64], &[f64], u64) {
        (&self.velocity, &self.second_moment, self.step_count)
    }

    /// Restores a state snapshot taken with [`Optimizer::state`].
    ///
    /// Buffer lengths are re-validated against the parameter vector on the
    /// next [`Optimizer::step`].
    pub fn restore_state(&mut self, velocity: Vec<f64>, second_moment: Vec<f64>, step_count: u64) {
        self.velocity = velocity;
        self.second_moment = second_moment;
        self.step_count = step_count;
    }

    /// Applies one update in place: `params ← params − lr · direction(grads)`.
    ///
    /// # Errors
    ///
    /// - [`NnError::ShapeMismatch`] if `params.len() != grads.len()` or the
    ///   length changed between calls.
    /// - [`NnError::InvalidHyperParameter`] if `lr` is not positive/finite
    ///   or the kind's hyper-parameters are invalid.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64) -> Result<(), NnError> {
        if params.len() != grads.len() {
            return Err(NnError::ShapeMismatch {
                expected: params.len(),
                actual: grads.len(),
                what: "gradient length",
            });
        }
        if !(lr.is_finite() && lr > 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "lr",
                reason: "must be positive and finite",
            });
        }
        self.kind.validate()?;
        self.ensure_state(params.len())?;
        self.step_count += 1;

        match self.kind {
            OptimizerKind::Sgd => {
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= lr * g;
                }
            }
            OptimizerKind::Momentum { beta } => {
                for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
                    *v = beta * *v + g;
                    *p -= lr * *v;
                }
            }
            OptimizerKind::Adam {
                beta1,
                beta2,
                epsilon,
            } => {
                let bc1 = 1.0 - powu(beta1, self.step_count);
                let bc2 = 1.0 - powu(beta2, self.step_count);
                for (((p, &g), v), s) in params
                    .iter_mut()
                    .zip(grads)
                    .zip(&mut self.velocity)
                    .zip(&mut self.second_moment)
                {
                    *v = beta1 * *v + (1.0 - beta1) * g;
                    *s = beta2 * *s + (1.0 - beta2) * g * g;
                    let m_hat = *v / bc1;
                    let s_hat = *s / bc2;
                    *p -= lr * m_hat / (s_hat.sqrt() + epsilon);
                }
            }
        }
        Ok(())
    }

    fn ensure_state(&mut self, len: usize) -> Result<(), NnError> {
        let needs_velocity = matches!(
            self.kind,
            OptimizerKind::Momentum { .. } | OptimizerKind::Adam { .. }
        );
        let needs_second = matches!(self.kind, OptimizerKind::Adam { .. });
        if needs_velocity {
            if self.velocity.is_empty() {
                self.velocity = vec![0.0; len];
            } else if self.velocity.len() != len {
                return Err(NnError::ShapeMismatch {
                    expected: self.velocity.len(),
                    actual: len,
                    what: "optimizer state length",
                });
            }
        }
        if needs_second {
            if self.second_moment.is_empty() {
                self.second_moment = vec![0.0; len];
            } else if self.second_moment.len() != len {
                return Err(NnError::ShapeMismatch {
                    expected: self.second_moment.len(),
                    actual: len,
                    what: "optimizer state length",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(p) = p² with gradient 2p; all optimizers should converge
    /// towards zero.
    fn run_quadratic(kind: OptimizerKind, lr: f64, steps: usize) -> f64 {
        let mut opt = kind.into_optimizer();
        let mut params = vec![5.0];
        for _ in 0..steps {
            let grads = vec![2.0 * params[0]];
            opt.step(&mut params, &grads, lr).unwrap();
        }
        params[0]
    }

    #[test]
    fn sgd_step_exact() {
        let mut opt = OptimizerKind::Sgd.into_optimizer();
        let mut params = vec![1.0, 2.0];
        opt.step(&mut params, &[0.5, -1.0], 0.1).unwrap();
        assert_eq!(params, vec![0.95, 2.1]);
    }

    #[test]
    fn all_kinds_minimize_quadratic() {
        assert!(run_quadratic(OptimizerKind::Sgd, 0.1, 100).abs() < 1e-6);
        assert!(run_quadratic(OptimizerKind::momentum(), 0.02, 200).abs() < 1e-4);
        assert!(run_quadratic(OptimizerKind::adam(), 0.3, 500).abs() < 1e-2);
    }

    #[test]
    fn momentum_accelerates_on_consistent_gradient() {
        let mut sgd = OptimizerKind::Sgd.into_optimizer();
        let mut mom = OptimizerKind::momentum().into_optimizer();
        let mut p_sgd = vec![0.0];
        let mut p_mom = vec![0.0];
        for _ in 0..10 {
            sgd.step(&mut p_sgd, &[-1.0], 0.1).unwrap();
            mom.step(&mut p_mom, &[-1.0], 0.1).unwrap();
        }
        assert!(p_mom[0] > p_sgd[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, Adam's first step magnitude ≈ lr.
        let mut opt = OptimizerKind::adam().into_optimizer();
        let mut params = vec![0.0];
        opt.step(&mut params, &[123.0], 0.01).unwrap();
        assert!((params[0] + 0.01).abs() < 1e-6, "step was {}", params[0]);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let mut opt = OptimizerKind::Sgd.into_optimizer();
        let mut params = vec![0.0];
        assert!(opt.step(&mut params, &[1.0, 2.0], 0.1).is_err());
    }

    #[test]
    fn state_length_change_rejected() {
        let mut opt = OptimizerKind::adam().into_optimizer();
        let mut params = vec![0.0, 0.0];
        opt.step(&mut params, &[1.0, 1.0], 0.1).unwrap();
        let mut shorter = vec![0.0];
        assert!(opt.step(&mut shorter, &[1.0], 0.1).is_err());
    }

    #[test]
    fn invalid_learning_rate_rejected() {
        let mut opt = OptimizerKind::Sgd.into_optimizer();
        let mut params = vec![0.0];
        assert!(opt.step(&mut params, &[1.0], 0.0).is_err());
        assert!(opt.step(&mut params, &[1.0], -0.1).is_err());
        assert!(opt.step(&mut params, &[1.0], f64::NAN).is_err());
    }

    #[test]
    fn invalid_hyper_parameters_rejected() {
        assert!(OptimizerKind::Momentum { beta: 1.5 }.validate().is_err());
        assert!(OptimizerKind::Adam {
            beta1: -0.1,
            beta2: 0.999,
            epsilon: 1e-8
        }
        .validate()
        .is_err());
        assert!(OptimizerKind::adam().validate().is_ok());
    }

    #[test]
    fn default_is_sgd() {
        assert_eq!(OptimizerKind::default(), OptimizerKind::Sgd);
    }

    #[test]
    fn kind_accessor() {
        let opt = OptimizerKind::adam().into_optimizer();
        assert_eq!(opt.kind(), OptimizerKind::adam());
    }
}
