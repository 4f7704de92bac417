use std::fmt;
use std::str::FromStr;

use wlc_math::elementary::exp;
use wlc_math::float_text::{parse_f64, write_f64};

use crate::NnError;

/// A perceptron activation ("squashing") function.
///
/// The paper (§2.1) uses the slope-parameterized logistic function
/// `f(x) = 1 / (1 + exp(−a·x))`, whose slope parameter `a` controls "the
/// fuzziness of the decision boundary" and which approaches a hard limiter
/// as `|a| → ∞` (Figure 2). That function is [`Activation::logistic_with_slope`];
/// the other variants are standard alternatives used by the test suite and
/// the ablation benchmarks.
///
/// # Examples
///
/// ```
/// use wlc_nn::Activation;
///
/// let f = Activation::logistic();
/// assert!((f.apply(0.0) - 0.5).abs() < 1e-12);
///
/// // Steeper slope → closer to a hard limiter.
/// let steep = Activation::logistic_with_slope(10.0).unwrap();
/// assert!(steep.apply(1.0) > f.apply(1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + exp(−slope·x))`, range (0, 1).
    Logistic {
        /// Slope parameter `a` of the paper's Figure 2.
        slope: f64,
    },
    /// Hyperbolic tangent, range (−1, 1).
    Tanh,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Identity (linear) activation, used for regression output layers.
    Identity,
    /// Hard threshold at zero (0 or 1). Not trainable by gradient descent;
    /// provided for the perceptron illustration of the paper's §2.1.
    HardLimiter,
}

impl Activation {
    /// The standard logistic sigmoid (slope 1).
    pub fn logistic() -> Self {
        Activation::Logistic { slope: 1.0 }
    }

    /// Logistic sigmoid with an explicit slope parameter `a` (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidHyperParameter`] if `slope` is zero,
    /// negative or not finite.
    pub fn logistic_with_slope(slope: f64) -> Result<Self, NnError> {
        if !(slope.is_finite() && slope > 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "slope",
                reason: "must be positive and finite",
            });
        }
        Ok(Activation::Logistic { slope })
    }

    /// Hyperbolic tangent.
    pub fn tanh() -> Self {
        Activation::Tanh
    }

    /// Rectified linear unit.
    pub fn relu() -> Self {
        Activation::Relu
    }

    /// Identity activation.
    pub fn identity() -> Self {
        Activation::Identity
    }

    /// Applies the activation to a pre-activation value.
    pub fn apply(&self, x: f64) -> f64 {
        match *self {
            Activation::Logistic { slope } => 1.0 / (1.0 + exp(-slope * x)),
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Identity => x,
            Activation::HardLimiter => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Derivative of the activation, given the pre-activation `x` and the
    /// already-computed activation value `fx = apply(x)`.
    ///
    /// Passing both lets sigmoid-family derivatives reuse the forward
    /// value (`f'(x) = a·f·(1−f)` for the logistic).
    pub fn derivative(&self, x: f64, fx: f64) -> f64 {
        match *self {
            Activation::Logistic { slope } => slope * fx * (1.0 - fx),
            Activation::Tanh => 1.0 - fx * fx,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
            Activation::HardLimiter => 0.0,
        }
    }

    /// Applies the activation element-wise to a slice, in place.
    pub fn apply_slice(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Out-of-place [`Activation::apply_slice`]: writes `apply(src[i])`
    /// into `dst[i]`, saving the batched forward pass a separate copy
    /// pass. Matches on the variant once per slice; each element is
    /// bit-identical to [`Activation::apply`].
    pub fn apply_slice_into(&self, src: &[f64], dst: &mut [f64]) {
        match *self {
            Activation::Logistic { slope } => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = 1.0 / (1.0 + exp(-slope * x));
                }
            }
            Activation::Tanh => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x.tanh();
                }
            }
            Activation::Relu => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x.max(0.0);
                }
            }
            Activation::Identity => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x;
                }
            }
            Activation::HardLimiter => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = if x >= 0.0 { 1.0 } else { 0.0 };
                }
            }
        }
    }

    /// Element-wise `delta[i] *= derivative(pre[i], acts[i])` over whole
    /// slices — the batched-backprop form of [`Activation::derivative`].
    /// Matching on the variant once per slice (instead of per element)
    /// lets the per-variant loops vectorize; each element's arithmetic is
    /// bit-identical to the scalar call.
    pub fn mul_derivative_slice(&self, pre: &[f64], acts: &[f64], delta: &mut [f64]) {
        match *self {
            Activation::Logistic { slope } => {
                for (d, &fx) in delta.iter_mut().zip(acts) {
                    *d *= slope * fx * (1.0 - fx);
                }
            }
            Activation::Tanh => {
                for (d, &fx) in delta.iter_mut().zip(acts) {
                    *d *= 1.0 - fx * fx;
                }
            }
            Activation::Relu => {
                for (d, &x) in delta.iter_mut().zip(pre) {
                    *d *= if x > 0.0 { 1.0 } else { 0.0 };
                }
            }
            Activation::Identity => {
                for d in delta.iter_mut() {
                    *d *= 1.0;
                }
            }
            Activation::HardLimiter => {
                for d in delta.iter_mut() {
                    *d *= 0.0;
                }
            }
        }
    }
}

impl Default for Activation {
    /// The paper's default: the logistic sigmoid with slope 1.
    fn default() -> Self {
        Activation::logistic()
    }
}

impl fmt::Display for Activation {
    /// The name in a model file's `layer` line: `logistic(1.0)`, `tanh`.
    /// The slope prints through [`write_f64`], like every other number
    /// in the file.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Activation::Logistic { slope } => {
                f.write_str("logistic(")?;
                write_f64(f, slope)?;
                f.write_str(")")
            }
            Activation::Tanh => write!(f, "tanh"),
            Activation::Relu => write!(f, "relu"),
            Activation::Identity => write!(f, "identity"),
            Activation::HardLimiter => write!(f, "hard_limiter"),
        }
    }
}

impl FromStr for Activation {
    type Err = NnError;

    /// Parses the format produced by `Display`, e.g. `logistic(1.0)` or
    /// `tanh`. The slope may be any text `f64` parses, so files written
    /// before the slope printed through `write_f64` (`logistic(1)`)
    /// still load.
    fn from_str(s: &str) -> Result<Self, NnError> {
        let s = s.trim();
        let parse_arg = |s: &str, prefix: &str| -> Option<f64> {
            let arg = s
                .strip_prefix(prefix)?
                .strip_prefix('(')?
                .strip_suffix(')')?;
            parse_f64(arg).ok()
        };
        match s {
            "tanh" => Ok(Activation::Tanh),
            "relu" => Ok(Activation::Relu),
            "identity" => Ok(Activation::Identity),
            "hard_limiter" => Ok(Activation::HardLimiter),
            _ => {
                if let Some(slope) = parse_arg(s, "logistic") {
                    Activation::logistic_with_slope(slope)
                } else {
                    Err(NnError::Parse {
                        line: 0,
                        reason: format!("unknown activation `{s}`"),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    /// Central-difference numerical derivative.
    fn numeric_derivative(act: &Activation, x: f64) -> f64 {
        let h = 1e-6;
        (act.apply(x + h) - act.apply(x - h)) / (2.0 * h)
    }

    #[test]
    fn logistic_midpoint_and_symmetry() {
        let f = Activation::logistic();
        assert!((f.apply(0.0) - 0.5).abs() < EPS);
        assert!((f.apply(2.0) + f.apply(-2.0) - 1.0).abs() < EPS);
    }

    #[test]
    fn logistic_slope_sharpens() {
        // Paper Fig. 2: larger |a| approaches a hard limiter.
        let shallow = Activation::logistic_with_slope(0.5).unwrap();
        let steep = Activation::logistic_with_slope(20.0).unwrap();
        assert!(steep.apply(0.5) > 0.99);
        assert!(shallow.apply(0.5) < 0.6);
        assert!((steep.apply(-0.5)) < 0.01);
    }

    #[test]
    fn logistic_rejects_bad_slope() {
        assert!(Activation::logistic_with_slope(0.0).is_err());
        assert!(Activation::logistic_with_slope(-2.0).is_err());
        assert!(Activation::logistic_with_slope(f64::NAN).is_err());
    }

    #[test]
    fn derivatives_match_numeric() {
        let acts = [
            Activation::logistic(),
            Activation::logistic_with_slope(3.0).unwrap(),
            Activation::Tanh,
            Activation::Identity,
        ];
        for act in acts {
            for &x in &[-2.0, -0.7, -0.1, 0.3, 1.1, 2.5] {
                let fx = act.apply(x);
                let analytic = act.derivative(x, fx);
                let numeric = numeric_derivative(&act, x);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act} at {x}: analytic {analytic} numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_away_from_kink() {
        let act = Activation::Relu;
        assert_eq!(act.derivative(2.0, 2.0), 1.0);
        assert_eq!(act.derivative(-2.0, 0.0), 0.0);
    }

    #[test]
    fn hard_limiter_bisects() {
        // §2.1: a perceptron with a hard limiter bisects the sample space.
        let act = Activation::HardLimiter;
        assert_eq!(act.apply(0.5), 1.0);
        assert_eq!(act.apply(-0.5), 0.0);
        assert_eq!(act.derivative(1.0, 1.0), 0.0);
    }

    #[test]
    fn apply_slice_in_place() {
        let act = Activation::Relu;
        let mut v = vec![-1.0, 2.0, -3.0];
        act.apply_slice(&mut v);
        assert_eq!(v, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn slice_form_matches_apply_bit_for_bit_at_odd_lengths() {
        // Odd lengths leave remainder lanes after a vectorized body;
        // CI also runs this test in a release build, where the loop
        // vectorizes.
        let acts = [
            Activation::logistic(),
            Activation::logistic_with_slope(2.5).unwrap(),
            Activation::Tanh,
            Activation::Relu,
            Activation::Identity,
            Activation::HardLimiter,
        ];
        let edges = [-800.0, -37.5, -1e-300, 0.0, 1e-300, 37.5, 800.0];
        for len in [1, 3, 5, 7, 9, 13, 17, 31, 33, 63] {
            let src: Vec<f64> = (0..len)
                .map(|i| edges.get(i).copied().unwrap_or(i as f64 * 0.37 - 6.1))
                .collect();
            for act in acts {
                let mut dst = vec![f64::NAN; len];
                act.apply_slice_into(&src, &mut dst);
                for (&x, &y) in src.iter().zip(&dst) {
                    assert_eq!(
                        y.to_bits(),
                        act.apply(x).to_bits(),
                        "{act} at {x} (len {len})"
                    );
                }
            }
        }
    }

    #[test]
    fn display_fromstr_roundtrip() {
        let acts = [
            Activation::logistic(),
            Activation::logistic_with_slope(2.5).unwrap(),
            Activation::Tanh,
            Activation::Relu,
            Activation::Identity,
            Activation::HardLimiter,
        ];
        for act in acts {
            let s = act.to_string();
            let back: Activation = s.parse().unwrap();
            assert_eq!(back, act, "roundtrip through `{s}`");
        }
        assert_eq!(Activation::logistic().to_string(), "logistic(1.0)");
        assert_eq!(
            Activation::logistic_with_slope(1e-300).unwrap().to_string(),
            "logistic(1e-300)"
        );
        assert_eq!(
            "logistic(1)".parse::<Activation>().unwrap(),
            Activation::logistic()
        );
    }

    #[test]
    fn fromstr_rejects_garbage() {
        assert!("sigmoidish".parse::<Activation>().is_err());
        assert!("logistic(abc)".parse::<Activation>().is_err());
        assert!("logistic(-1)".parse::<Activation>().is_err());
    }

    #[test]
    fn default_is_logistic() {
        assert_eq!(Activation::default(), Activation::logistic());
    }

    #[test]
    fn tanh_is_odd() {
        let act = Activation::Tanh;
        assert!((act.apply(1.3) + act.apply(-1.3)).abs() < EPS);
    }
}
