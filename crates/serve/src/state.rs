//! The hot-swappable serving model: an atomic *last-good* slot.
//!
//! [`ModelSlot`] owns the [`FallbackModel`] bundle behind a
//! [`TrackedRwLock`]`<Arc<...>>`: request handlers take the shared read
//! side and clone the `Arc` once per request (a cheap pointer copy), so
//! concurrent snapshots never serialize against each other, and keep
//! predicting from that snapshot even if a reload lands mid-request.
//! Reloads take the write side and are validated **before** the swap —
//! parse, finiteness, scaler sanity and dimension agreement with the
//! serving bundle — so a corrupt or mismatched file is rejected without
//! ever disturbing the model that is currently serving. In debug builds
//! the tracked lock participates in the workspace lock-order checker.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wlc_exec::TrackedRwLock;

use wlc_fault::Fs;
use wlc_model::fallback::FallbackModel;
use wlc_model::{ModelError, WorkloadModel};

use crate::error::ServeError;

/// Reads and parses a candidate model through `fs` (failpoint site
/// `serve.model.load`).
///
/// Error mapping: a missing file or corrupt content is the caller's
/// mistake ([`ServeError::Model`], non-retriable, same shape as
/// `WorkloadModel::load`); any other read failure is a transient
/// [`ServeError::Durable`] whose retriability comes from
/// `wlc_fault::SITE_POLICY` — the fleet keeps serving last-good, so
/// retrying the reload later is safe.
pub(crate) fn load_candidate(fs: &dyn Fs, path: &Path) -> Result<WorkloadModel, ServeError> {
    const SITE: &str = "serve.model.load";
    let wrap = |source: ModelError| {
        ServeError::Model(ModelError::LoadFailed {
            path: path.to_path_buf(),
            source: Box::new(source),
        })
    };
    let text = fs.read_to_string(SITE, path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            wrap(e.into())
        } else {
            ServeError::Durable {
                site: SITE,
                path: path.display().to_string(),
                reason: e.to_string(),
                retriable: wlc_fault::site_retriable(SITE),
            }
        }
    })?;
    WorkloadModel::from_text(&text).map_err(wrap)
}

/// Atomic last-good model slot (see module docs).
#[derive(Debug)]
pub struct ModelSlot {
    current: TrackedRwLock<Arc<FallbackModel>>,
    generation: AtomicU64,
}

impl ModelSlot {
    /// Wraps an initial bundle as generation 0.
    pub fn new(bundle: FallbackModel) -> Self {
        ModelSlot {
            current: TrackedRwLock::new("ModelSlot.current", Arc::new(bundle)),
            generation: AtomicU64::new(0),
        }
    }

    /// A consistent snapshot of the serving bundle. Handlers call this
    /// once per request so a concurrent reload cannot change the model
    /// underneath a half-computed prediction.
    pub fn snapshot(&self) -> Arc<FallbackModel> {
        Arc::clone(&self.current.read())
    }

    /// Monotone reload counter: bumped once per successful swap.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Validates and installs a new primary model; returns the new
    /// generation. On any error the serving bundle is left untouched.
    pub fn install(&self, candidate: WorkloadModel) -> Result<u64, ServeError> {
        // Hold the write lock across validate+swap so two concurrent
        // reloads cannot interleave their dimension checks and swaps.
        let mut current = self.current.write();
        let expected = match current.inputs() {
            0 => None,
            inputs => Some((inputs, current.outputs())),
        };
        candidate.validate(expected)?;
        let next = current.with_primary(candidate)?;
        *current = Arc::new(next);
        Ok(self.generation.fetch_add(1, Ordering::SeqCst) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc_data::{Dataset, Sample};
    use wlc_model::baseline::{LinearFeatures, LinearModel};
    use wlc_model::{PerformanceModel, WorkloadModelBuilder};

    fn dataset(inputs: usize) -> Dataset {
        let in_names: Vec<String> = (0..inputs).map(|i| format!("x{i}")).collect();
        let mut ds = Dataset::new(in_names, vec!["y".into()]).unwrap();
        for i in 0..12 {
            let x: Vec<f64> = (0..inputs).map(|j| (i + j) as f64).collect();
            let y = x.iter().sum::<f64>() * 0.5 + 1.0;
            ds.push(Sample::new(x, vec![y])).unwrap();
        }
        ds
    }

    fn model(inputs: usize, seed: u64) -> WorkloadModel {
        WorkloadModelBuilder::new()
            .no_hidden_layers()
            .hidden_layer(4)
            .max_epochs(150)
            .seed(seed)
            .train(&dataset(inputs))
            .unwrap()
            .model
    }

    fn slot(inputs: usize) -> ModelSlot {
        let baseline = LinearModel::fit(&dataset(inputs), LinearFeatures::FirstOrder).unwrap();
        let bundle =
            FallbackModel::new(Some(model(inputs, 1)), Some(baseline), vec![], vec![]).unwrap();
        ModelSlot::new(bundle)
    }

    #[test]
    fn install_bumps_generation_and_swaps() {
        let slot = slot(2);
        assert_eq!(slot.generation(), 0);
        let before = slot.snapshot();
        let replacement = model(2, 7);
        let expected = replacement.predict(&[3.0, 4.0]).unwrap();
        assert_eq!(slot.install(replacement).unwrap(), 1);
        let after = slot.snapshot();
        let got = after.primary().unwrap().predict(&[3.0, 4.0]).unwrap();
        assert_eq!(got, expected);
        // Old snapshot still predicts: in-flight requests are unaffected.
        assert!(before.primary().unwrap().predict(&[3.0, 4.0]).is_ok());
    }

    #[test]
    fn dimension_mismatch_is_rejected_without_disturbing_serving() {
        let slot = slot(2);
        let baseline_pred = slot
            .snapshot()
            .primary()
            .unwrap()
            .predict(&[3.0, 4.0])
            .unwrap();
        let err = slot.install(model(3, 2)).unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "{err}");
        assert_eq!(slot.generation(), 0);
        let still = slot
            .snapshot()
            .primary()
            .unwrap()
            .predict(&[3.0, 4.0])
            .unwrap();
        assert_eq!(still, baseline_pred, "serving model must be untouched");
    }

    #[test]
    fn corrupt_and_truncated_files_are_rejected() {
        let dir = std::env::temp_dir().join(format!(
            "wlc-serve-slot-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let slot = slot(2);
        let reload =
            |path: &Path| load_candidate(&wlc_fault::RealFs, path).and_then(|m| slot.install(m));
        let good = model(2, 3);
        let path = dir.join("model.txt");
        good.save(&path).unwrap();

        // Baseline: a good file installs.
        assert_eq!(reload(&path).unwrap(), 1);

        let text = std::fs::read_to_string(&path).unwrap();
        // Swap the xscaler line for one that parses but holds a
        // non-finite mean: caught by validation, not by the parser.
        let nonfinite: String = text
            .lines()
            .map(|line| {
                if line.starts_with("xscaler ") {
                    "xscaler standard inf 0.0 | 1.0 1.0".to_string()
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let cases: Vec<(&str, String)> = vec![
            ("missing", String::new()),
            (
                "truncated",
                text.lines().take(3).collect::<Vec<_>>().join("\n"),
            ),
            (
                "corrupt-header",
                text.replacen("wlc-model", "not-a-model", 1),
            ),
            ("nonfinite-scaler", nonfinite),
        ];
        for (name, content) in cases {
            let bad = dir.join(format!("{name}.txt"));
            if name != "missing" {
                std::fs::write(&bad, content).unwrap();
            }
            let err = reload(&bad).unwrap_err();
            assert!(matches!(err, ServeError::Model(_)), "{name}: {err}");
            assert_eq!(slot.generation(), 1, "{name} must not swap");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
