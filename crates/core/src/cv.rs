use wlc_data::metrics::ErrorReport;
use wlc_data::{Dataset, KFold};
use wlc_math::rng::Seed;
use wlc_nn::TrainReport;

use crate::report::format_table;
use crate::{ModelError, WorkloadModelBuilder};

/// One trial of a k-fold cross validation.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CvTrial {
    /// 0-based fold index (the paper's "trial" minus one).
    pub fold: usize,
    /// Validation-set error report (harmonic-mean relative errors, the
    /// paper's metric).
    pub validation: ErrorReport,
    /// Training-set error report (used for the Fig. 5 style plots).
    pub training: ErrorReport,
    /// The training run's report (loss history, stop reason).
    pub train_report: TrainReport,
}

/// A fold that was excluded from the aggregate because every training
/// attempt failed or diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct QuarantinedFold {
    /// 0-based fold index.
    pub fold: usize,
    /// Why the fold was quarantined (last failure).
    pub reason: String,
    /// How many retry attempts were spent before giving up.
    pub retries_used: usize,
}

impl std::fmt::Display for QuarantinedFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fold {} quarantined after {} retries: {}",
            self.fold + 1,
            self.retries_used,
            self.reason
        )
    }
}

/// The result of a full cross validation — the paper's Table 2.
#[derive(Debug, Clone)]
pub struct CvReport {
    output_names: Vec<String>,
    trials: Vec<CvTrial>,
    quarantined: Vec<QuarantinedFold>,
}

impl CvReport {
    /// The per-fold trials that completed, in fold order. Quarantined
    /// folds (see [`CrossValidator::quarantine`]) are absent.
    pub fn trials(&self) -> &[CvTrial] {
        &self.trials
    }

    /// Folds excluded from the aggregate, in fold order (empty unless
    /// quarantining was enabled and a fold failed).
    pub fn quarantined(&self) -> &[QuarantinedFold] {
        &self.quarantined
    }

    /// Whether every fold completed.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Output column names.
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Mean validation error per output across trials (the paper's
    /// "Average" row of Table 2).
    pub fn average_errors(&self) -> Vec<f64> {
        let m = self.output_names.len();
        let mut avg = vec![0.0; m];
        for trial in &self.trials {
            for (i, out) in trial.validation.outputs().iter().enumerate() {
                avg[i] += out.harmonic_mean_error;
            }
        }
        for a in &mut avg {
            *a /= self.trials.len() as f64;
        }
        avg
    }

    /// Grand mean of the per-output average errors.
    pub fn overall_error(&self) -> f64 {
        let avg = self.average_errors();
        avg.iter().sum::<f64>() / avg.len() as f64
    }

    /// `1 − overall_error` — the paper reports "an overall average
    /// prediction accuracy of 95%".
    pub fn overall_accuracy(&self) -> f64 {
        1.0 - self.overall_error()
    }

    /// Renders the Table 2 layout: one row per trial, one column per
    /// indicator, errors in percent, with an average row.
    pub fn to_table(&self) -> String {
        let mut headers: Vec<String> = vec!["Trial".into()];
        headers.extend(self.output_names.iter().cloned());
        let mut rows: Vec<Vec<String>> = Vec::new();
        for trial in &self.trials {
            let mut row = vec![(trial.fold + 1).to_string()];
            for out in trial.validation.outputs() {
                row.push(format!("{:.1} %", out.harmonic_mean_error * 100.0));
            }
            rows.push(row);
        }
        let mut avg_row = vec!["Average".to_string()];
        for a in self.average_errors() {
            avg_row.push(format!("{:.1} %", a * 100.0));
        }
        rows.push(avg_row);
        let mut table = format_table(&headers, &rows);
        for q in &self.quarantined {
            table.push_str(&format!("{q}\n"));
        }
        table
    }
}

/// The paper's validation harness (§3.3, §4): k-fold cross validation of
/// a [`WorkloadModelBuilder`] configuration over a dataset.
///
/// Following the paper's protocol, the hyper-parameters (topology,
/// termination threshold, …) are chosen once — "the MLP node count and
/// the termination threshold were manually tuned for the first trial;
/// then the next four trials were generated automatically with the same
/// node count and the same threshold value".
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
/// use wlc_model::{CrossValidator, WorkloadModelBuilder};
///
/// let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
/// for i in 0..20 {
///     let x = i as f64 / 4.0;
///     ds.push(Sample::new(vec![x], vec![x * x + 1.0])).unwrap();
/// }
/// let builder = WorkloadModelBuilder::new()
///     .no_hidden_layers()
///     .hidden_layer(6)
///     .max_epochs(400)
///     .seed(1);
/// let report = CrossValidator::new(builder).k(4).run(&ds)?;
/// assert_eq!(report.trials().len(), 4);
/// assert!(report.overall_error() < 1.0);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrossValidator {
    builder: WorkloadModelBuilder,
    k: usize,
    seed: u64,
    jobs: usize,
    retries: usize,
    quarantine: bool,
    force_diverge: Vec<usize>,
}

impl CrossValidator {
    /// Creates a 5-fold cross validator (the paper's k) for the given
    /// model configuration. Folds train concurrently on a worker pool
    /// sized by [`wlc_exec::default_jobs`]; each fold's weight seed and
    /// data split depend only on the fold index and `seed`, so the report
    /// is bit-identical for any worker count.
    pub fn new(builder: WorkloadModelBuilder) -> Self {
        CrossValidator {
            builder,
            k: 5,
            seed: 0,
            jobs: wlc_exec::default_jobs(),
            retries: 0,
            quarantine: false,
            force_diverge: Vec::new(),
        }
    }

    /// Sets the number of folds.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the fold-assignment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker count for training the folds (`jobs <= 1` runs
    /// sequentially). The result does not depend on this.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Retrains a failed or diverged fold up to `retries` times, each
    /// attempt with a fresh weight seed derived from `(seed, fold,
    /// attempt)`. The report stays bit-identical for any worker count.
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Quarantines folds whose every attempt failed or diverged instead
    /// of aborting the whole validation: the report lists them in
    /// [`CvReport::quarantined`] and aggregates over the survivors.
    /// Without this (the default), the first failed fold is an error.
    pub fn quarantine(mut self, quarantine: bool) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Test hook: forces the *first* training attempt of the listed folds
    /// to diverge (by training with an absurd learning rate), exercising
    /// the retry and quarantine paths without a pathological dataset.
    pub fn force_diverge(mut self, folds: &[usize]) -> Self {
        self.force_diverge = folds.to_vec();
        self
    }

    /// Runs the cross validation.
    ///
    /// # Errors
    ///
    /// - [`ModelError::Data`] for invalid `k` relative to the dataset.
    /// - Training/evaluation errors from the folds.
    pub fn run(&self, dataset: &Dataset) -> Result<CvReport, ModelError> {
        let kf = KFold::new(dataset.len(), self.k, Seed::new(self.seed))?;
        let folds: Vec<(Vec<usize>, Vec<usize>)> = kf.folds().collect();
        let attempt_trial = |fold: usize, attempt: usize| -> Result<CvTrial, ModelError> {
            let (train_idx, val_idx) = &folds[fold];
            let train = dataset.subset(train_idx)?;
            let val = dataset.subset(val_idx)?;
            // Each trial re-initializes weights (fresh random start), as
            // the paper's per-trial training does; retries derive a fresh
            // seed from the attempt number.
            let weight_seed = if attempt == 0 {
                self.seed ^ (fold as u64) << 32
            } else {
                Seed::new(self.seed)
                    .derive(fold as u64)
                    .derive(attempt as u64)
                    .value()
            };
            let mut builder = self.builder.clone().seed(weight_seed);
            if attempt == 0 && self.force_diverge.contains(&fold) {
                builder = builder.learning_rate(1e18);
            }
            let outcome = builder.train(&train)?;
            if outcome.report.stop_reason == wlc_nn::StopReason::Diverged {
                return Err(ModelError::Nn(wlc_nn::NnError::Diverged {
                    epoch: outcome.report.epochs_run.saturating_sub(1),
                }));
            }
            let validation = outcome.model.evaluate(&val)?;
            let training = outcome.model.evaluate(&train)?;
            Ok(CvTrial {
                fold,
                validation,
                training,
                train_report: outcome.report,
            })
        };
        let task =
            |fold: usize, attempt: usize| -> Result<Result<CvTrial, QuarantinedFold>, ModelError> {
                match attempt_trial(fold, attempt) {
                    Ok(trial) => Ok(Ok(trial)),
                    // Let the pool retry; only the final attempt's failure is
                    // eligible for quarantine.
                    Err(e) if attempt < self.retries => Err(e),
                    Err(e) if self.quarantine => Ok(Err(QuarantinedFold {
                        fold,
                        reason: e.to_string(),
                        retries_used: attempt,
                    })),
                    Err(e) => Err(e),
                }
            };
        let outcomes = wlc_exec::try_map_indexed_retry(self.jobs, folds.len(), self.retries, task)?;
        let mut trials = Vec::new();
        let mut quarantined = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(trial) => trials.push(trial),
                Err(q) => quarantined.push(q),
            }
        }
        if trials.is_empty() {
            return Err(ModelError::AllFoldsQuarantined { folds: folds.len() });
        }
        Ok(CvReport {
            output_names: dataset.output_names().to_vec(),
            trials,
            quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::Sample;

    fn dataset(n: usize) -> Dataset {
        // Smooth 2-input, 2-output non-linear map.
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

    fn quick_builder() -> WorkloadModelBuilder {
        WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(10)
            .max_epochs(800)
            .learning_rate(0.05)
            .termination_threshold(1e-3)
    }

    #[test]
    fn five_fold_protocol() {
        let ds = dataset(35);
        let report = CrossValidator::new(quick_builder())
            .seed(3)
            .run(&ds)
            .unwrap();
        assert_eq!(report.trials().len(), 5);
        for trial in report.trials() {
            assert_eq!(trial.validation.outputs().len(), 2);
        }
        // A learnable relationship: average error well under 50%.
        assert!(report.overall_error() < 0.5, "{}", report.overall_error());
        assert!(report.overall_accuracy() > 0.5);
    }

    #[test]
    fn errors_are_averaged_correctly() {
        let ds = dataset(20);
        let report = CrossValidator::new(quick_builder()).k(4).run(&ds).unwrap();
        let avg = report.average_errors();
        assert_eq!(avg.len(), 2);
        let manual: f64 = report
            .trials()
            .iter()
            .map(|t| t.validation.outputs()[0].harmonic_mean_error)
            .sum::<f64>()
            / 4.0;
        assert!((avg[0] - manual).abs() < 1e-12);
    }

    #[test]
    fn table_renders_all_trials() {
        let ds = dataset(20);
        let report = CrossValidator::new(quick_builder().max_epochs(50))
            .k(4)
            .run(&ds)
            .unwrap();
        let table = report.to_table();
        assert!(table.contains("Trial"));
        assert!(table.contains("Average"));
        assert!(table.contains('%'));
        // 4 trials + header + separator + average.
        assert!(table.lines().count() >= 6);
    }

    #[test]
    fn invalid_k_rejected() {
        let ds = dataset(4);
        assert!(CrossValidator::new(quick_builder()).k(1).run(&ds).is_err());
        assert!(CrossValidator::new(quick_builder()).k(10).run(&ds).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = dataset(25);
        let builder = quick_builder().max_epochs(60);
        let a = CrossValidator::new(builder.clone())
            .seed(9)
            .run(&ds)
            .unwrap();
        let b = CrossValidator::new(builder).seed(9).run(&ds).unwrap();
        assert_eq!(a.average_errors(), b.average_errors());
    }

    #[test]
    fn quarantine_isolates_forced_divergence() {
        let ds = dataset(35);
        let report = CrossValidator::new(quick_builder())
            .seed(3)
            .quarantine(true)
            .force_diverge(&[2])
            .run(&ds)
            .unwrap();
        assert_eq!(report.trials().len(), 4);
        assert_eq!(report.quarantined().len(), 1);
        assert!(!report.is_complete());
        let q = &report.quarantined()[0];
        assert_eq!(q.fold, 2);
        assert_eq!(q.retries_used, 0);
        assert!(q.reason.contains("diverged"), "{}", q.reason);
        // Survivors are the completed folds, in order, and aggregate fine.
        let folds: Vec<usize> = report.trials().iter().map(|t| t.fold).collect();
        assert_eq!(folds, vec![0, 1, 3, 4]);
        assert!(report.overall_error().is_finite());
        assert!(report.to_table().contains("quarantined"));
    }

    #[test]
    fn all_folds_quarantined_is_an_error() {
        let ds = dataset(35);
        let err = CrossValidator::new(quick_builder())
            .quarantine(true)
            .force_diverge(&[0, 1, 2, 3, 4])
            .run(&ds)
            .unwrap_err();
        assert!(matches!(err, ModelError::AllFoldsQuarantined { folds: 5 }));
        assert!(err.to_string().contains("all 5 folds"));
    }

    #[test]
    fn forced_divergence_without_quarantine_aborts() {
        let ds = dataset(35);
        assert!(CrossValidator::new(quick_builder())
            .force_diverge(&[1])
            .run(&ds)
            .is_err());
    }

    #[test]
    fn retries_recover_forced_divergence() {
        let ds = dataset(35);
        // The injected divergence hits only attempt 0; one retry (with a
        // derived seed and the real learning rate) completes the fold.
        let report = CrossValidator::new(quick_builder())
            .seed(3)
            .retries(1)
            .force_diverge(&[1])
            .run(&ds)
            .unwrap();
        assert_eq!(report.trials().len(), 5);
        assert!(report.is_complete());
    }

    #[test]
    fn quarantine_and_retries_deterministic_across_jobs() {
        let ds = dataset(35);
        let make = |jobs: usize| {
            CrossValidator::new(quick_builder().max_epochs(100))
                .seed(7)
                .jobs(jobs)
                .retries(1)
                .quarantine(true)
                .force_diverge(&[0, 3])
                .run(&ds)
                .unwrap()
        };
        let serial = make(1);
        let parallel = make(4);
        assert_eq!(serial.average_errors(), parallel.average_errors());
        assert_eq!(serial.quarantined(), parallel.quarantined());
        for (s, p) in serial.trials().iter().zip(parallel.trials()) {
            assert_eq!(s.fold, p.fold);
            assert_eq!(s.train_report.loss_history, p.train_report.loss_history);
        }
    }

    #[test]
    fn trials_use_distinct_weight_seeds() {
        let ds = dataset(25);
        let report = CrossValidator::new(quick_builder().max_epochs(30))
            .seed(2)
            .run(&ds)
            .unwrap();
        // Different folds see different data and different initial
        // weights: loss histories should differ.
        let h0 = &report.trials()[0].train_report.loss_history;
        let h1 = &report.trials()[1].train_report.loss_history;
        assert_ne!(h0, h1);
    }
}
