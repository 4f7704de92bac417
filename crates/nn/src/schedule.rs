use crate::NnError;

/// Learning-rate schedule over epochs.
///
/// # Examples
///
/// ```
/// use wlc_nn::LearningRateSchedule;
///
/// let s = LearningRateSchedule::exponential(0.1, 0.5).unwrap();
/// assert_eq!(s.rate_at(0), 0.1);
/// assert!(s.rate_at(10) < s.rate_at(9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LearningRateSchedule {
    /// The same rate every epoch.
    Constant {
        /// The fixed learning rate.
        rate: f64,
    },
    /// Smooth exponential decay `initial · exp(−decay · epoch)`.
    Exponential {
        /// Initial rate.
        initial: f64,
        /// Decay constant per epoch.
        decay: f64,
    },
}

impl LearningRateSchedule {
    /// Creates an exponential-decay schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidHyperParameter`] unless `initial > 0` and
    /// `decay >= 0`.
    pub fn exponential(initial: f64, decay: f64) -> Result<Self, NnError> {
        Self::check_rate(initial)?;
        if !(decay.is_finite() && decay >= 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "decay",
                reason: "must be non-negative and finite",
            });
        }
        Ok(LearningRateSchedule::Exponential { initial, decay })
    }

    fn check_rate(rate: f64) -> Result<(), NnError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(NnError::InvalidHyperParameter {
                name: "rate",
                reason: "must be positive and finite",
            });
        }
        Ok(())
    }

    /// The same schedule with every rate multiplied by `scale` — used by
    /// the trainer's divergence-recovery backoff.
    pub(crate) fn scaled(&self, scale: f64) -> Self {
        match *self {
            LearningRateSchedule::Constant { rate } => {
                LearningRateSchedule::Constant { rate: rate * scale }
            }
            LearningRateSchedule::Exponential { initial, decay } => {
                LearningRateSchedule::Exponential {
                    initial: initial * scale,
                    decay,
                }
            }
        }
    }

    /// The learning rate to use during `epoch` (0-based).
    pub fn rate_at(&self, epoch: usize) -> f64 {
        match *self {
            LearningRateSchedule::Constant { rate } => rate,
            LearningRateSchedule::Exponential { initial, decay } => {
                initial * (-decay * epoch as f64).exp()
            }
        }
    }
}

impl Default for LearningRateSchedule {
    /// A constant rate of 0.01.
    fn default() -> Self {
        LearningRateSchedule::Constant { rate: 0.01 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        let s = LearningRateSchedule::Constant { rate: 0.3 };
        assert_eq!(s.rate_at(0), 0.3);
        assert_eq!(s.rate_at(1000), 0.3);
    }

    #[test]
    fn exponential_monotone_decreasing() {
        let s = LearningRateSchedule::exponential(0.5, 0.01).unwrap();
        let mut prev = f64::INFINITY;
        for e in 0..100 {
            let r = s.rate_at(e);
            assert!(r < prev);
            assert!(r > 0.0);
            prev = r;
        }
    }

    #[test]
    fn exponential_zero_decay_is_constant() {
        let s = LearningRateSchedule::exponential(0.2, 0.0).unwrap();
        assert_eq!(s.rate_at(0), s.rate_at(500));
    }

    #[test]
    fn constructors_validate() {
        assert!(LearningRateSchedule::exponential(0.0, 0.0).is_err());
        assert!(LearningRateSchedule::exponential(f64::NAN, 0.0).is_err());
        assert!(LearningRateSchedule::exponential(0.1, -1.0).is_err());
    }

    #[test]
    fn default_rate() {
        assert_eq!(LearningRateSchedule::default().rate_at(7), 0.01);
    }
}
