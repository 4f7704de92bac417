use wlc_data::{train_test_split, Dataset};
use wlc_math::rng::Seed;

use crate::{ModelError, TrainedModel, WorkloadModelBuilder};

/// One evaluated hyper-parameter candidate.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchCandidate {
    /// Hidden-layer widths of the candidate.
    pub hidden: Vec<usize>,
    /// Termination threshold (None = disabled).
    pub termination_threshold: Option<f64>,
    /// Learning rate.
    pub learning_rate: f64,
    /// Validation error (harmonic-mean metric, averaged over outputs).
    pub validation_error: f64,
    /// Epochs the training ran.
    pub epochs_run: usize,
}

/// The outcome of a hyper-parameter search.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SearchOutcome {
    /// Every candidate, sorted best-first by validation error.
    pub candidates: Vec<SearchCandidate>,
    /// The best candidate re-trained on the *full* dataset.
    pub best: TrainedModel,
}

/// Share of the samples held out to score each candidate.
const VALIDATION_FRACTION: f64 = 0.25;

/// Grid search over the model hyper-parameters the paper tunes by hand.
///
/// The paper's protocol tunes the "MLP node count and the termination
/// threshold … manually for the first trial" (§4). This helper automates
/// that step: it evaluates a small grid of topologies, thresholds and
/// learning rates on a held-out split and returns the winner re-trained
/// on all data — the same budget a performance engineer would spend, made
/// reproducible.
///
/// # Examples
///
/// ```
/// use wlc_data::{Dataset, Sample};
/// use wlc_model::{HyperParameterSearch, WorkloadModelBuilder};
///
/// let mut ds = Dataset::new(vec!["x".into()], vec!["y".into()]).unwrap();
/// for i in 0..24 {
///     let x = i as f64 / 4.0;
///     ds.push(Sample::new(vec![x], vec![x * x])).unwrap();
/// }
/// let base = WorkloadModelBuilder::new().max_epochs(300);
/// let outcome = HyperParameterSearch::new(base)
///     .topologies(vec![vec![4], vec![8]])
///     .thresholds(vec![Some(1e-3)])
///     .learning_rates(vec![0.05])
///     .run(&ds)?;
/// assert_eq!(outcome.candidates.len(), 2);
/// assert!(outcome.candidates[0].validation_error
///     <= outcome.candidates[1].validation_error);
/// # Ok::<(), wlc_model::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HyperParameterSearch {
    base: WorkloadModelBuilder,
    topologies: Vec<Vec<usize>>,
    thresholds: Vec<Option<f64>>,
    learning_rates: Vec<f64>,
    seed: u64,
}

impl HyperParameterSearch {
    /// Starts a search from a base builder (whose epoch budget, optimizer
    /// and scaling settings are reused for every candidate). The default
    /// grid mirrors the sizes the paper could plausibly have tried.
    pub fn new(base: WorkloadModelBuilder) -> Self {
        HyperParameterSearch {
            base,
            topologies: vec![vec![8], vec![16], vec![16, 12], vec![32, 16]],
            thresholds: vec![Some(1e-2), Some(1e-3), Some(1e-4)],
            learning_rates: vec![0.02],
            seed: 0,
        }
    }

    /// Sets the hidden-topology candidates.
    pub fn topologies(mut self, topologies: Vec<Vec<usize>>) -> Self {
        self.topologies = topologies;
        self
    }

    /// Sets the termination-threshold candidates (`None` = train to the
    /// epoch budget).
    pub fn thresholds(mut self, thresholds: Vec<Option<f64>>) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Sets the learning-rate candidates.
    pub fn learning_rates(mut self, rates: Vec<f64>) -> Self {
        self.learning_rates = rates;
        self
    }

    /// Sets the split/weight seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn candidate_builder(
        &self,
        hidden: &[usize],
        threshold: Option<f64>,
        rate: f64,
    ) -> WorkloadModelBuilder {
        let mut builder = self.base.clone().no_hidden_layers();
        for &w in hidden {
            builder = builder.hidden_layer(w);
        }
        builder = builder.learning_rate(rate).seed(self.seed);
        match threshold {
            Some(t) => builder.termination_threshold(t),
            None => builder.no_termination_threshold(),
        }
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// - [`ModelError::InvalidParameter`] for an empty grid.
    /// - Training/evaluation errors from candidates.
    pub fn run(&self, dataset: &Dataset) -> Result<SearchOutcome, ModelError> {
        if self.topologies.is_empty()
            || self.thresholds.is_empty()
            || self.learning_rates.is_empty()
        {
            return Err(ModelError::InvalidParameter {
                name: "grid",
                reason: "topologies, thresholds and learning rates must be non-empty",
            });
        }
        let (train_idx, val_idx) =
            train_test_split(dataset.len(), VALIDATION_FRACTION, Seed::new(self.seed))?;
        let train = dataset.subset(&train_idx)?;
        let val = dataset.subset(&val_idx)?;

        let mut candidates = Vec::new();
        for hidden in &self.topologies {
            for &threshold in &self.thresholds {
                for &rate in &self.learning_rates {
                    let builder = self.candidate_builder(hidden, threshold, rate);
                    let outcome = builder.train(&train)?;
                    let report = outcome.model.evaluate(&val)?;
                    candidates.push(SearchCandidate {
                        hidden: hidden.clone(),
                        termination_threshold: threshold,
                        learning_rate: rate,
                        validation_error: report.overall_error(),
                        epochs_run: outcome.report.epochs_run,
                    });
                }
            }
        }
        candidates.sort_by(|a, b| a.validation_error.total_cmp(&b.validation_error));

        let winner = &candidates[0];
        let best_builder = self.candidate_builder(
            &winner.hidden,
            winner.termination_threshold,
            winner.learning_rate,
        );
        let best = best_builder.train(dataset)?;
        Ok(SearchOutcome { candidates, best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::Sample;

    fn dataset() -> Dataset {
        let mut ds = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (i as f64, j as f64);
                ds.push(Sample::new(vec![a, b], vec![a * b + a])).unwrap();
            }
        }
        ds
    }

    fn base() -> WorkloadModelBuilder {
        WorkloadModelBuilder::new()
            .max_epochs(400)
            .learning_rate(0.05)
    }

    #[test]
    fn search_covers_full_grid_sorted() {
        let outcome = HyperParameterSearch::new(base())
            .topologies(vec![vec![4], vec![8], vec![8, 4]])
            .thresholds(vec![Some(1e-2), Some(1e-4)])
            .learning_rates(vec![0.05])
            .seed(3)
            .run(&dataset())
            .unwrap();
        assert_eq!(outcome.candidates.len(), 6);
        for pair in outcome.candidates.windows(2) {
            assert!(pair[0].validation_error <= pair[1].validation_error);
        }
    }

    #[test]
    fn best_is_retrained_on_full_data() {
        let ds = dataset();
        let outcome = HyperParameterSearch::new(base())
            .topologies(vec![vec![8]])
            .thresholds(vec![Some(1e-4)])
            .learning_rates(vec![0.05])
            .run(&ds)
            .unwrap();
        // Retrained on all 36 samples: training error should be small.
        let report = outcome.best.model.evaluate(&ds).unwrap();
        assert!(report.overall_error() < 0.4, "{}", report.overall_error());
        let winner = &outcome.candidates[0];
        assert_eq!(outcome.best.model.topology()[1..2], winner.hidden[..]);
    }

    #[test]
    fn empty_grid_rejected() {
        assert!(HyperParameterSearch::new(base())
            .topologies(vec![])
            .run(&dataset())
            .is_err());
        assert!(HyperParameterSearch::new(base())
            .thresholds(vec![])
            .run(&dataset())
            .is_err());
        assert!(HyperParameterSearch::new(base())
            .learning_rates(vec![])
            .run(&dataset())
            .is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = dataset();
        let run = |seed| {
            HyperParameterSearch::new(base())
                .topologies(vec![vec![4], vec![8]])
                .thresholds(vec![Some(1e-3)])
                .learning_rates(vec![0.05])
                .seed(seed)
                .run(&ds)
                .unwrap()
                .candidates
                .iter()
                .map(|c| c.validation_error)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }
}
