//! Baseline-as-fallback: a serving bundle that pairs the non-linear
//! [`WorkloadModel`] with the prior-work linear baseline and degrades
//! gracefully between them.
//!
//! The paper's predictor is meant to be queried interactively by tuners;
//! an *online* deployment therefore needs an answer even when the MLP is
//! missing, fails validation, or is tripped offline by a circuit
//! breaker. [`FallbackModel::predict_batch`] encodes that policy: predict
//! with the primary MLP when allowed and healthy, otherwise fall back to
//! the linear baseline ([`LinearModel`], the §6 comparator) and *say so*
//! via [`Served::Baseline`], so callers can tag responses as degraded.

use std::borrow::Cow;

use wlc_math::Matrix;
use wlc_nn::BandEngine;

use crate::baseline::LinearModel;
use crate::{ModelError, PerformanceModel, PredictScratch, WorkloadModel};

/// Which model actually produced a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The non-linear MLP workload model answered.
    Primary,
    /// The linear baseline answered (degraded mode).
    Baseline,
}

impl Served {
    /// Whether this is the degraded (baseline) path.
    pub fn is_degraded(self) -> bool {
        matches!(self, Served::Baseline)
    }
}

/// What [`FallbackModel::predict_batch`] made of one batch.
#[derive(Debug)]
pub struct BatchOutcome<'s> {
    /// One prediction row per input row and the model that produced
    /// them, or the error that left the batch unanswered: a caller-input
    /// error ([`ModelError::WidthMismatch`], [`ModelError::NonFiniteInput`]),
    /// else the failure of the baseline, or its absence.
    pub answer: Result<(Cow<'s, Matrix>, Served), ModelError>,
    /// The primary's failure, when it was tried and failed. Caller-input
    /// errors say nothing about the model and never land here.
    pub primary_failure: Option<ModelError>,
}

/// A primary [`WorkloadModel`] with an optional [`LinearModel`] fallback,
/// at least one of which must be present.
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
/// use wlc_math::Matrix;
/// use wlc_model::baseline::{LinearFeatures, LinearModel};
/// use wlc_model::fallback::{FallbackModel, Served};
/// use wlc_model::PredictScratch;
/// use wlc_nn::BandEngine;
///
/// let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
/// for i in 0..5 {
///     let x = i as f64;
///     ds.push(Sample::new(vec![x], vec![2.0 * x + 1.0])).unwrap();
/// }
/// let baseline = LinearModel::fit(&ds, LinearFeatures::FirstOrder)?;
/// let bundle = FallbackModel::new(None, Some(baseline), ds.input_names().to_vec(),
///                                 ds.output_names().to_vec())?;
/// let xs = Matrix::from_rows(&[&[10.0]]).unwrap();
/// let (mut scratch, mut engine) = (PredictScratch::new(), BandEngine::new(1));
/// let outcome = bundle.predict_batch(&xs, || true, || false, &mut scratch, &mut engine);
/// let (y, served) = outcome.answer?;
/// assert_eq!(served, Served::Baseline); // no primary — degraded by construction
/// assert!((y.row(0)[0] - 21.0).abs() < 1e-6);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FallbackModel {
    input_names: Vec<String>,
    output_names: Vec<String>,
    primary: Option<WorkloadModel>,
    baseline: Option<LinearModel>,
}

impl FallbackModel {
    /// Bundles a primary model and/or a baseline. Input/output names are
    /// taken from the primary when present, else from the provided lists.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] if both models are absent.
    /// - [`ModelError::WidthMismatch`] if primary and baseline disagree
    ///   on input or output width.
    pub fn new(
        primary: Option<WorkloadModel>,
        baseline: Option<LinearModel>,
        input_names: Vec<String>,
        output_names: Vec<String>,
    ) -> Result<Self, ModelError> {
        if primary.is_none() && baseline.is_none() {
            return Err(ModelError::InvalidParameter {
                name: "fallback",
                reason: "need a primary model, a baseline, or both",
            });
        }
        if let (Some(p), Some(b)) = (&primary, &baseline) {
            if p.inputs() != b.inputs() {
                return Err(ModelError::WidthMismatch {
                    expected: p.inputs(),
                    actual: b.inputs(),
                    what: "baseline input",
                });
            }
            if p.outputs() != b.outputs() {
                return Err(ModelError::WidthMismatch {
                    expected: p.outputs(),
                    actual: b.outputs(),
                    what: "baseline output",
                });
            }
        }
        let (input_names, output_names) = match &primary {
            Some(p) => (p.input_names().to_vec(), p.output_names().to_vec()),
            None => (input_names, output_names),
        };
        Ok(FallbackModel {
            input_names,
            output_names,
            primary,
            baseline,
        })
    }

    /// Input (configuration) column names.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output (indicator) column names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Whether a primary (MLP) model is loaded.
    pub fn has_primary(&self) -> bool {
        self.primary.is_some()
    }

    /// Whether a baseline fallback is available.
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// The primary model, if loaded.
    pub fn primary(&self) -> Option<&WorkloadModel> {
        self.primary.as_ref()
    }

    /// Returns a copy of this bundle with the primary model replaced —
    /// the building block of an atomic last-good hot swap: validate the
    /// candidate first, then publish the new bundle in one pointer store.
    pub fn with_primary(&self, primary: WorkloadModel) -> Result<Self, ModelError> {
        FallbackModel::new(
            Some(primary),
            self.baseline.clone(),
            self.input_names.clone(),
            self.output_names.clone(),
        )
    }

    /// Expected input width.
    pub fn inputs(&self) -> usize {
        self.primary
            .as_ref()
            .map(PerformanceModel::inputs)
            .or_else(|| self.baseline.as_ref().map(PerformanceModel::inputs))
            .unwrap_or(0)
    }

    /// Expected output width.
    pub fn outputs(&self) -> usize {
        self.primary
            .as_ref()
            .map(PerformanceModel::outputs)
            .or_else(|| self.baseline.as_ref().map(PerformanceModel::outputs))
            .unwrap_or(0)
    }

    /// Predicts every row of `xs`, reporting which model answered — the
    /// primary→baseline choice in one place.
    ///
    /// The primary is tried when `allow_primary` agrees (a circuit
    /// breaker's verdict), or regardless when there is no baseline to
    /// degrade to. `allow_primary` is called only when a primary is
    /// loaded, so a half-open breaker spends its trial only on a real
    /// attempt. `inject_failure` is called only when the primary is about
    /// to run; returning `true` fails it without running it (fault
    /// injection). The primary runs through `scratch` and `engine`, so a
    /// warm scratch makes the pass allocation-free, and every row is
    /// bitwise equal to [`PerformanceModel::predict`]. When the primary
    /// fails or answers non-finite values, the baseline answers instead.
    ///
    /// Caller-input errors — wrong width, non-finite features — are
    /// *not* degraded around: the same bad request would fail on the
    /// baseline too, and the caller needs the 4xx-style diagnosis.
    pub fn predict_batch<'s>(
        &self,
        xs: &Matrix,
        allow_primary: impl FnOnce() -> bool,
        inject_failure: impl FnOnce() -> bool,
        scratch: &'s mut PredictScratch,
        engine: &mut BandEngine,
    ) -> BatchOutcome<'s> {
        let chosen = self
            .primary
            .as_ref()
            .filter(|_| allow_primary() || self.baseline.is_none());
        let primary_failure = match chosen {
            None => None,
            Some(_) if inject_failure() => Some(ModelError::InvalidParameter {
                name: "primary",
                reason: "failure injected by the caller",
            }),
            Some(primary) => match primary.predict_batch_engine(xs, scratch, engine) {
                Ok(rows) if first_non_finite(rows).is_none() => {
                    return BatchOutcome {
                        answer: Ok((Cow::Borrowed(rows), Served::Primary)),
                        primary_failure: None,
                    }
                }
                Err(
                    err @ (ModelError::WidthMismatch { .. } | ModelError::NonFiniteInput { .. }),
                ) => {
                    return BatchOutcome {
                        answer: Err(err),
                        primary_failure: None,
                    }
                }
                Ok(_) => Some(non_finite("primary")),
                Err(err) => Some(err),
            },
        };
        let answer = match &self.baseline {
            Some(baseline) => match first_non_finite(xs) {
                // The baseline checks widths but not finiteness, and the
                // primary, which checks both, may not have run.
                Some(index) => Err(ModelError::NonFiniteInput {
                    index,
                    stage: "raw",
                }),
                None => match baseline.predict_batch(xs) {
                    Ok(rows) if first_non_finite(&rows).is_none() => {
                        Ok((Cow::Owned(rows), Served::Baseline))
                    }
                    Ok(_) => Err(non_finite("baseline")),
                    Err(err) => Err(err),
                },
            },
            None => Err(ModelError::InvalidParameter {
                name: "fallback",
                reason: "no baseline to answer in the primary's place",
            }),
        };
        BatchOutcome {
            answer,
            primary_failure,
        }
    }
}

/// The column of the first non-finite value in `m`, if any.
fn first_non_finite(m: &Matrix) -> Option<usize> {
    (0..m.rows()).find_map(|r| m.row(r).iter().position(|v| !v.is_finite()))
}

fn non_finite(name: &'static str) -> ModelError {
    ModelError::InvalidParameter {
        name,
        reason: "model produced non-finite predictions",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::LinearFeatures;
    use crate::WorkloadModelBuilder;
    use wlc_data::{Dataset, Sample};

    fn dataset() -> Dataset {
        let mut ds =
            Dataset::new(vec!["a".into(), "b".into()], vec!["y0".into(), "y1".into()]).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (i as f64 + 1.0, j as f64 + 1.0);
                ds.push(Sample::new(vec![a, b], vec![a * a + b, a * b]))
                    .unwrap();
            }
        }
        ds
    }

    fn primary() -> WorkloadModel {
        WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(8)
            .max_epochs(300)
            .seed(5)
            .train(&dataset())
            .unwrap()
            .model
    }

    fn baseline() -> LinearModel {
        LinearModel::fit(&dataset(), LinearFeatures::FirstOrder).unwrap()
    }

    type Answer = Result<(Vec<f64>, Served), ModelError>;

    /// Predicts the one-row batch `x` with the breaker's verdict
    /// `allow` and fault injection `inject`; returns the answer's row
    /// and the primary's failure.
    fn predict(
        bundle: &FallbackModel,
        x: &[f64],
        allow: bool,
        inject: bool,
    ) -> (Answer, Option<ModelError>) {
        let xs = Matrix::from_rows(&[x]).unwrap();
        let (mut scratch, mut engine) = (PredictScratch::new(), BandEngine::new(1));
        let outcome = bundle.predict_batch(&xs, || allow, || inject, &mut scratch, &mut engine);
        let answer = outcome
            .answer
            .map(|(rows, served)| (rows.row(0).to_vec(), served));
        (answer, outcome.primary_failure)
    }

    #[test]
    fn requires_at_least_one_model() {
        assert!(matches!(
            FallbackModel::new(None, None, vec![], vec![]),
            Err(ModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn dims_must_agree() {
        let mut narrow = Dataset::new(vec!["a".into()], vec!["y".into()]).unwrap();
        for i in 0..4 {
            narrow
                .push(Sample::new(vec![i as f64], vec![i as f64 * 2.0]))
                .unwrap();
        }
        let bad = LinearModel::fit(&narrow, LinearFeatures::FirstOrder).unwrap();
        assert!(matches!(
            FallbackModel::new(Some(primary()), Some(bad), vec![], vec![]),
            Err(ModelError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn healthy_primary_answers_and_is_not_degraded() {
        let model = primary();
        let expected = model.predict(&[2.0, 3.0]).unwrap();
        let bundle = FallbackModel::new(Some(model), Some(baseline()), vec![], vec![]).unwrap();
        let (answer, failure) = predict(&bundle, &[2.0, 3.0], true, false);
        let (y, served) = answer.unwrap();
        assert_eq!(served, Served::Primary);
        assert!(!served.is_degraded());
        assert!(failure.is_none());
        assert_eq!(y, expected, "a one-row batch is bitwise `predict`");
        assert_eq!(bundle.input_names(), &["a", "b"]);
        assert_eq!(bundle.output_names(), &["y0", "y1"]);
    }

    #[test]
    fn open_circuit_serves_baseline_verbatim() {
        let base = baseline();
        let expected = base.predict(&[2.0, 3.0]).unwrap();
        let bundle = FallbackModel::new(Some(primary()), Some(base), vec![], vec![]).unwrap();
        let (answer, failure) = predict(&bundle, &[2.0, 3.0], false, false);
        let (y, served) = answer.unwrap();
        assert_eq!(served, Served::Baseline);
        assert!(served.is_degraded());
        assert!(failure.is_none(), "a vetoed primary has not failed");
        assert_eq!(y, expected);
    }

    #[test]
    fn missing_primary_degrades_by_construction() {
        let bundle = FallbackModel::new(
            None,
            Some(baseline()),
            vec!["a".into(), "b".into()],
            vec!["y0".into(), "y1".into()],
        )
        .unwrap();
        assert!(!bundle.has_primary());
        let (answer, _) = predict(&bundle, &[1.0, 1.0], true, false);
        assert_eq!(answer.unwrap().1, Served::Baseline);
    }

    #[test]
    fn open_circuit_without_baseline_still_answers_from_primary() {
        let bundle = FallbackModel::new(Some(primary()), None, vec![], vec![]).unwrap();
        let (answer, _) = predict(&bundle, &[2.0, 2.0], false, false);
        assert_eq!(answer.unwrap().1, Served::Primary);
    }

    #[test]
    fn caller_input_errors_are_not_degraded_around() {
        let bundle = FallbackModel::new(Some(primary()), Some(baseline()), vec![], vec![]).unwrap();
        // Whether or not the breaker lets the primary run.
        for allow in [true, false] {
            let (answer, failure) = predict(&bundle, &[1.0], allow, false);
            assert!(matches!(answer, Err(ModelError::WidthMismatch { .. })));
            assert!(failure.is_none());
            let (answer, failure) = predict(&bundle, &[f64::NAN, 1.0], allow, false);
            assert!(matches!(answer, Err(ModelError::NonFiniteInput { .. })));
            assert!(failure.is_none());
        }
    }

    #[test]
    fn failed_primary_is_reported_and_degrades_when_it_can() {
        let base = baseline();
        let expected = base.predict(&[2.0, 3.0]).unwrap();
        let bundle = FallbackModel::new(Some(primary()), Some(base), vec![], vec![]).unwrap();
        let (answer, failure) = predict(&bundle, &[2.0, 3.0], true, true);
        assert_eq!(answer.unwrap(), (expected, Served::Baseline));
        assert!(failure.is_some());

        // Nothing to degrade to: the batch goes unanswered.
        let lone = FallbackModel::new(Some(primary()), None, vec![], vec![]).unwrap();
        let (answer, failure) = predict(&lone, &[2.0, 3.0], true, true);
        assert!(answer.is_err());
        assert!(failure.is_some());
    }

    #[test]
    fn hooks_run_only_when_the_primary_could_answer() {
        let xs = Matrix::from_rows(&[&[2.0, 3.0]]).unwrap();
        let (mut scratch, mut engine) = (PredictScratch::new(), BandEngine::new(1));
        let never = || -> bool { panic!("hook must not run") };
        // No primary: the breaker is not consulted.
        let degraded = FallbackModel::new(
            None,
            Some(baseline()),
            vec!["a".into(), "b".into()],
            vec!["y0".into(), "y1".into()],
        )
        .unwrap();
        let outcome = degraded.predict_batch(&xs, never, never, &mut scratch, &mut engine);
        assert!(outcome.answer.is_ok());
        // A vetoed primary is not run, so no failure is injected.
        let full = FallbackModel::new(Some(primary()), Some(baseline()), vec![], vec![]).unwrap();
        let outcome = full.predict_batch(&xs, || false, never, &mut scratch, &mut engine);
        assert!(outcome.answer.is_ok());
    }

    #[test]
    fn with_primary_swaps_while_keeping_baseline() {
        let bundle = FallbackModel::new(
            None,
            Some(baseline()),
            vec!["a".into(), "b".into()],
            vec!["y0".into(), "y1".into()],
        )
        .unwrap();
        let upgraded = bundle.with_primary(primary()).unwrap();
        assert!(upgraded.has_primary() && upgraded.has_baseline());
        let (answer, _) = predict(&upgraded, &[2.0, 2.0], true, false);
        assert_eq!(answer.unwrap().1, Served::Primary);
    }
}
