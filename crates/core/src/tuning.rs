use wlc_data::design::full_factorial;

use crate::{ModelError, PerformanceModel};

/// The scoring function the paper proposes for recommending
/// configurations ("we can further build a system that recommends the
/// best configuration according to a scoring function", §5.3).
///
/// Indicator layout follows the paper: the first `constraints.len()`
/// outputs are response times with upper bounds; the last output is the
/// throughput to maximize. A configuration's score is its predicted
/// throughput minus `violation_penalty` for every unit of relative
/// constraint violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringFunction {
    constraints: Vec<f64>,
    violation_penalty: f64,
}

impl ScoringFunction {
    /// Creates a scoring function from response-time constraints (upper
    /// bounds, one per response-time indicator) and a violation penalty.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive
    /// constraints or a negative penalty.
    pub fn new(constraints: Vec<f64>, violation_penalty: f64) -> Result<Self, ModelError> {
        if constraints.iter().any(|&c| !(c.is_finite() && c > 0.0)) {
            return Err(ModelError::InvalidParameter {
                name: "constraints",
                reason: "must be positive and finite",
            });
        }
        if !(violation_penalty.is_finite() && violation_penalty >= 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "violation_penalty",
                reason: "must be non-negative and finite",
            });
        }
        Ok(ScoringFunction {
            constraints,
            violation_penalty,
        })
    }

    /// Scores a predicted indicator vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::WidthMismatch`] unless
    /// `indicators.len() == constraints.len() + 1`.
    pub fn score(&self, indicators: &[f64]) -> Result<f64, ModelError> {
        if indicators.len() != self.constraints.len() + 1 {
            return Err(ModelError::WidthMismatch {
                expected: self.constraints.len() + 1,
                actual: indicators.len(),
                what: "indicator vector",
            });
        }
        let throughput = *indicators.last().expect("non-empty");
        let mut penalty = 0.0;
        for (rt, &limit) in indicators.iter().zip(self.constraints.iter()) {
            if *rt > limit {
                penalty += (rt - limit) / limit;
            }
        }
        Ok(throughput - self.violation_penalty * penalty)
    }

    /// Whether a predicted indicator vector satisfies every constraint.
    ///
    /// # Errors
    ///
    /// As for [`ScoringFunction::score`].
    pub fn satisfies(&self, indicators: &[f64]) -> Result<bool, ModelError> {
        if indicators.len() != self.constraints.len() + 1 {
            return Err(ModelError::WidthMismatch {
                expected: self.constraints.len() + 1,
                actual: indicators.len(),
                what: "indicator vector",
            });
        }
        Ok(indicators
            .iter()
            .zip(self.constraints.iter())
            .all(|(rt, &limit)| *rt <= limit))
    }
}

/// A recommended configuration with its predicted performance.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Recommendation {
    /// The best configuration found.
    pub configuration: Vec<f64>,
    /// The model's predicted indicators at that configuration.
    pub predicted_indicators: Vec<f64>,
    /// Its score under the scoring function.
    pub score: f64,
    /// Whether every response-time constraint is predicted satisfied.
    pub feasible: bool,
    /// How many candidate configurations were evaluated.
    pub candidates_evaluated: usize,
}

/// Model-driven configuration search: the paper's promise that the model
/// "can effectively narrow down the configuration combinations … thus
/// radically reducing ineffectual experiments" (§5.3).
pub struct TuningAdvisor<'a> {
    model: &'a dyn PerformanceModel,
    scoring: ScoringFunction,
}

impl std::fmt::Debug for TuningAdvisor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuningAdvisor")
            .field("model_inputs", &self.model.inputs())
            .field("model_outputs", &self.model.outputs())
            .field("scoring", &self.scoring)
            .finish()
    }
}

impl<'a> TuningAdvisor<'a> {
    /// Creates an advisor over a trained model and a scoring function.
    pub fn new(model: &'a dyn PerformanceModel, scoring: ScoringFunction) -> Self {
        TuningAdvisor { model, scoring }
    }

    /// Evaluates every combination of the per-parameter candidate levels
    /// through the model and returns the best-scoring configuration.
    ///
    /// # Errors
    ///
    /// - [`ModelError::WidthMismatch`] if `levels.len()` does not match
    ///   the model's inputs.
    /// - [`ModelError::Data`] for empty level lists.
    ///
    /// # Examples
    ///
    /// See [`crate`] docs and `examples/tuning_advisor.rs`.
    pub fn recommend(&self, levels: &[Vec<f64>]) -> Result<Recommendation, ModelError> {
        if levels.len() != self.model.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: self.model.inputs(),
                actual: levels.len(),
                what: "candidate levels",
            });
        }
        let candidates = full_factorial(levels)?;
        let mut best: Option<Recommendation> = None;
        let total = candidates.len();
        for config in candidates {
            let indicators = self.model.predict(&config)?;
            let score = self.scoring.score(&indicators)?;
            let feasible = self.scoring.satisfies(&indicators)?;
            let better = match &best {
                None => true,
                // Feasible beats infeasible; otherwise higher score wins.
                Some(b) => match (feasible, b.feasible) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => score > b.score,
                },
            };
            if better {
                best = Some(Recommendation {
                    configuration: config,
                    predicted_indicators: indicators,
                    score,
                    feasible,
                    candidates_evaluated: total,
                });
            }
        }
        best.ok_or(ModelError::InvalidParameter {
            name: "levels",
            reason: "produced no candidate configurations",
        })
    }

    /// Per-parameter sensitivity around a configuration: for each input,
    /// the relative change of the predicted throughput when that input
    /// sweeps its candidate levels with the others held at `around`.
    ///
    /// Near-zero entries identify the paper's *futile parameters* (§5.1):
    /// "it will be of no use if one attempts to tune the default queue to
    /// achieve a better manufacturing response time".
    ///
    /// # Errors
    ///
    /// - [`ModelError::WidthMismatch`] for wrong-width inputs.
    pub fn parameter_sensitivity(
        &self,
        around: &[f64],
        levels: &[Vec<f64>],
    ) -> Result<Vec<f64>, ModelError> {
        if around.len() != self.model.inputs() || levels.len() != self.model.inputs() {
            return Err(ModelError::WidthMismatch {
                expected: self.model.inputs(),
                actual: around.len().min(levels.len()),
                what: "configuration",
            });
        }
        let mut sensitivities = Vec::with_capacity(around.len());
        for (param, level_values) in levels.iter().enumerate() {
            if level_values.is_empty() {
                return Err(ModelError::InvalidParameter {
                    name: "levels",
                    reason: "each parameter needs at least one level",
                });
            }
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut config = around.to_vec();
            for &v in level_values {
                config[param] = v;
                let score = self.scoring.score(&self.model.predict(&config)?)?;
                lo = lo.min(score);
                hi = hi.max(score);
            }
            let denom = hi.abs().max(lo.abs()).max(1e-12);
            sensitivities.push((hi - lo) / denom);
        }
        Ok(sensitivities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 inputs -> [response_time, throughput].
    /// rt = |x0 - 10| / 10 + 0.1; throughput peaks at x1 = 5.
    struct Toy;
    impl PerformanceModel for Toy {
        fn inputs(&self) -> usize {
            2
        }
        fn outputs(&self) -> usize {
            2
        }
        fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
            let rt = (x[0] - 10.0).abs() / 10.0 + 0.1;
            let tput = 100.0 - (x[1] - 5.0).powi(2);
            Ok(vec![rt, tput])
        }
    }

    fn scoring() -> ScoringFunction {
        ScoringFunction::new(vec![0.5], 1000.0).unwrap()
    }

    #[test]
    fn scoring_rewards_throughput_and_penalizes_violations() {
        let s = scoring();
        let ok = s.score(&[0.3, 100.0]).unwrap();
        assert_eq!(ok, 100.0);
        let bad = s.score(&[1.0, 100.0]).unwrap();
        assert_eq!(bad, 100.0 - 1000.0);
        assert!(s.satisfies(&[0.5, 50.0]).unwrap());
        assert!(!s.satisfies(&[0.51, 50.0]).unwrap());
    }

    #[test]
    fn scoring_validates() {
        assert!(ScoringFunction::new(vec![0.0], 1.0).is_err());
        assert!(ScoringFunction::new(vec![1.0], -1.0).is_err());
        let s = scoring();
        assert!(s.score(&[1.0]).is_err());
        assert!(s.satisfies(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn recommend_finds_the_peak() {
        let model = Toy;
        let advisor = TuningAdvisor::new(&model, scoring());
        let levels = vec![vec![5.0, 10.0, 15.0], vec![1.0, 3.0, 5.0, 7.0, 9.0]];
        let rec = advisor.recommend(&levels).unwrap();
        assert_eq!(rec.configuration, vec![10.0, 5.0]);
        assert!(rec.feasible);
        assert_eq!(rec.candidates_evaluated, 15);
        assert_eq!(rec.predicted_indicators[1], 100.0);
    }

    #[test]
    fn feasibility_dominates_score() {
        // x0 = 20 violates the constraint (rt = 1.1) even where the
        // throughput is identical; the feasible point must win.
        let model = Toy;
        let advisor = TuningAdvisor::new(&model, scoring());
        let rec = advisor.recommend(&[vec![10.0, 20.0], vec![5.0]]).unwrap();
        assert_eq!(rec.configuration[0], 10.0);
        assert!(rec.feasible);
    }

    #[test]
    fn infeasible_everywhere_still_recommends() {
        let model = Toy;
        let advisor = TuningAdvisor::new(&model, scoring());
        // rt at x0=40 is 3.1; at x0=30 it is 2.1 — both violate. The less
        // violating one scores higher.
        let rec = advisor.recommend(&[vec![30.0, 40.0], vec![5.0]]).unwrap();
        assert_eq!(rec.configuration[0], 30.0);
        assert!(!rec.feasible);
    }

    #[test]
    fn recommend_validates_widths() {
        let model = Toy;
        let advisor = TuningAdvisor::new(&model, scoring());
        assert!(advisor.recommend(&[vec![1.0]]).is_err());
        assert!(advisor.recommend(&[vec![1.0], vec![]]).is_err());
    }

    #[test]
    fn sensitivity_flags_futile_parameter() {
        /// Model whose output ignores x0 entirely.
        struct Ignores0;
        impl PerformanceModel for Ignores0 {
            fn inputs(&self) -> usize {
                2
            }
            fn outputs(&self) -> usize {
                2
            }
            fn predict(&self, x: &[f64]) -> Result<Vec<f64>, ModelError> {
                Ok(vec![0.1, 10.0 * x[1]])
            }
        }
        let model = Ignores0;
        let advisor = TuningAdvisor::new(&model, scoring());
        let sens = advisor
            .parameter_sensitivity(&[5.0, 5.0], &[vec![0.0, 10.0], vec![0.0, 10.0]])
            .unwrap();
        assert!(sens[0] < 1e-9, "futile parameter not flagged: {sens:?}");
        assert!(sens[1] > 0.5, "active parameter not detected: {sens:?}");
    }

    #[test]
    fn sensitivity_validates_widths() {
        let model = Toy;
        let advisor = TuningAdvisor::new(&model, scoring());
        assert!(advisor
            .parameter_sensitivity(&[1.0], &[vec![1.0], vec![1.0]])
            .is_err());
    }
}
