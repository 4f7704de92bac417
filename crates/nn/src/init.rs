use wlc_math::rng::Xoshiro256;

/// Weight initialization scheme.
///
/// The paper (§3.1) notes that weights and biases "are initialized with
/// random values" and that the *scale* of those values interacts with
/// feature standardization to determine whether the initial hyperplanes
/// cut through the sample cloud. The schemes here control that scale.
///
/// # Examples
///
/// ```
/// use wlc_nn::Initializer;
/// use wlc_math::rng::Xoshiro256;
///
/// let mut rng = Xoshiro256::seed_from(1);
/// let w = Initializer::XavierUniform.sample(&mut rng, 4, 8);
/// assert!(w.abs() <= (6.0_f64 / 12.0).sqrt());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Initializer {
    /// Uniform on `[-limit, limit]`.
    Uniform {
        /// Half-width of the sampling interval.
        limit: f64,
    },
    /// Glorot/Xavier uniform: `limit = sqrt(6 / (fan_in + fan_out))`.
    /// The right default for sigmoid/tanh networks like the paper's.
    XavierUniform,
    /// Glorot/Xavier normal: `std = sqrt(2 / (fan_in + fan_out))`.
    XavierNormal,
    /// He/Kaiming normal: `std = sqrt(2 / fan_in)`, for ReLU networks.
    HeNormal,
    /// All zeros (biases; degenerate for weights — test use only).
    Zeros,
}

impl Initializer {
    /// Draws one weight for a layer with the given fan-in/fan-out.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `fan_in == 0` for the fan-dependent
    /// schemes (layer construction validates dimensions first).
    pub fn sample(&self, rng: &mut Xoshiro256, fan_in: usize, fan_out: usize) -> f64 {
        debug_assert!(fan_in > 0, "fan_in must be positive");
        match *self {
            Initializer::Uniform { limit } => rng.next_range(-limit, limit),
            Initializer::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
                rng.next_range(-limit, limit)
            }
            Initializer::XavierNormal => {
                let std = (2.0 / (fan_in + fan_out) as f64).sqrt();
                std * rng.next_gaussian()
            }
            Initializer::HeNormal => {
                let std = (2.0 / fan_in as f64).sqrt();
                std * rng.next_gaussian()
            }
            Initializer::Zeros => 0.0,
        }
    }
}

impl Default for Initializer {
    /// Xavier uniform — appropriate for the paper's sigmoid MLPs.
    fn default() -> Self {
        Initializer::XavierUniform
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_limit() {
        let init = Initializer::Uniform { limit: 0.3 };
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..1000 {
            let w = init.sample(&mut rng, 5, 5);
            assert!(w.abs() <= 0.3);
        }
    }

    #[test]
    fn xavier_uniform_bound() {
        let init = Initializer::XavierUniform;
        let mut rng = Xoshiro256::seed_from(2);
        let bound = (6.0_f64 / 20.0).sqrt();
        for _ in 0..1000 {
            assert!(init.sample(&mut rng, 12, 8).abs() <= bound);
        }
    }

    #[test]
    fn xavier_normal_std_scales_with_fans() {
        let init = Initializer::XavierNormal;
        let mut rng = Xoshiro256::seed_from(3);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| init.sample(&mut rng, 8, 8)).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var - 2.0 / 16.0).abs() < 0.005, "variance {var}");
    }

    #[test]
    fn he_normal_std() {
        let init = Initializer::HeNormal;
        let mut rng = Xoshiro256::seed_from(4);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| init.sample(&mut rng, 50, 1)).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!((var - 0.04).abs() < 0.002, "variance {var}");
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = Xoshiro256::seed_from(5);
        assert_eq!(Initializer::Zeros.sample(&mut rng, 3, 3), 0.0);
    }

    #[test]
    fn default_is_xavier_uniform() {
        assert_eq!(Initializer::default(), Initializer::XavierUniform);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let init = Initializer::XavierNormal;
        let a: Vec<f64> = {
            let mut rng = Xoshiro256::seed_from(6);
            (0..10).map(|_| init.sample(&mut rng, 4, 4)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256::seed_from(6);
            (0..10).map(|_| init.sample(&mut rng, 4, 4)).collect()
        };
        assert_eq!(a, b);
    }
}
