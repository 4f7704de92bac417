//! Training checkpoints.
//!
//! A [`Checkpoint`] captures the *complete* trainer state at an epoch
//! boundary — network parameters, optimizer moments, the loss history
//! and the recovery-attempt index — so a run
//! killed mid-way can resume with [`crate::Trainer::resume_from`] and
//! finish bit-identically to an uninterrupted run.
//!
//! The on-disk format extends the model text format: a small header of
//! `key value` lines followed by the [`Mlp::to_text`] body. Floats are
//! printed with `{:?}` (shortest exact representation), so round-trips
//! preserve every bit.
//!
//! Four header lines (`best_val`, `stall`, `best_params`,
//! `val_history`) are kept from the format's validation-monitoring
//! days: they are always written as `-`, `0`, `-` and `-`, the values
//! every run without a validation set wrote, and the reader accepts no
//! other values, so every checkpoint `wlc train` or `wlc learn` has
//! written still loads.

use std::path::Path;

use wlc_fault::Fs;

use crate::{Mlp, NnError};

const MAGIC: &str = "wlc-nn-checkpoint v1";

/// A snapshot of mid-training state (see the module docs).
///
/// Produced automatically by the trainer when
/// [`crate::TrainConfig::checkpoint_every`] is configured; consumed by
/// [`crate::Trainer::resume_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs fully completed before the snapshot.
    pub(crate) epoch: usize,
    /// Recovery attempt the run was on (0 = first try).
    pub(crate) attempt: usize,
    /// Failed recovery attempts before this one.
    pub(crate) recovery_attempts: usize,
    /// Optimizer step count.
    pub(crate) opt_step: u64,
    /// Optimizer velocity buffer (empty if unused).
    pub(crate) opt_velocity: Vec<f64>,
    /// Optimizer second-moment buffer (empty if unused).
    pub(crate) opt_second: Vec<f64>,
    /// Per-epoch training losses so far.
    pub(crate) loss_history: Vec<f64>,
    /// The network at the snapshot.
    pub(crate) mlp: Mlp,
}

impl Checkpoint {
    /// Epochs fully completed before the snapshot was taken.
    pub fn epochs_completed(&self) -> usize {
        self.epoch
    }

    /// The recovery attempt the checkpointed run was on (0 = first try).
    pub fn attempt(&self) -> usize {
        self.attempt
    }

    /// The network state at the snapshot.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Serializes the checkpoint to the crate's text format.
    pub fn to_text(&self) -> String {
        let floats = |v: &[f64]| -> String {
            if v.is_empty() {
                "-".to_string()
            } else {
                v.iter()
                    .map(|x| format!("{x:?}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        };
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("epoch {}\n", self.epoch));
        out.push_str(&format!("attempt {}\n", self.attempt));
        out.push_str(&format!("recovery_attempts {}\n", self.recovery_attempts));
        out.push_str(&format!("opt_step {}\n", self.opt_step));
        out.push_str(&format!("opt_velocity {}\n", floats(&self.opt_velocity)));
        out.push_str(&format!("opt_second {}\n", floats(&self.opt_second)));
        out.push_str("best_val -\nstall 0\nbest_params -\n");
        out.push_str(&format!("loss_history {}\n", floats(&self.loss_history)));
        out.push_str("val_history -\n");
        out.push_str(&self.mlp.to_text());
        out
    }

    /// Parses a checkpoint from the format produced by
    /// [`Checkpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Parse`] describing the offending line on any
    /// format violation (wrong magic, missing fields, corrupt floats,
    /// a validation line other than `-` / `0`, corrupt network body).
    pub fn from_text(text: &str) -> Result<Checkpoint, NnError> {
        let mut lines = text.lines().enumerate();
        let (_, first) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
        if first.trim() != MAGIC {
            return Err(parse_err(1, "missing or wrong checkpoint magic header"));
        }

        let mut field = |name: &'static str| -> Result<(usize, String), NnError> {
            let (ln, line) = lines
                .next()
                .ok_or_else(|| parse_err(0, "unexpected end of input in header"))?;
            let rest = line
                .trim()
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| parse_err(ln + 1, "unexpected header field"))?;
            Ok((ln + 1, rest.trim().to_string()))
        };

        let (ln, raw) = field("epoch")?;
        let epoch: usize = raw.parse().map_err(|_| parse_err(ln, "bad epoch"))?;
        let (ln, raw) = field("attempt")?;
        let attempt: usize = raw.parse().map_err(|_| parse_err(ln, "bad attempt"))?;
        let (ln, raw) = field("recovery_attempts")?;
        let recovery_attempts: usize = raw
            .parse()
            .map_err(|_| parse_err(ln, "bad recovery_attempts"))?;
        let (ln, raw) = field("opt_step")?;
        let opt_step: u64 = raw.parse().map_err(|_| parse_err(ln, "bad opt_step"))?;
        let (ln, raw) = field("opt_velocity")?;
        let opt_velocity = parse_floats_opt(&raw, ln)?.unwrap_or_default();
        let (ln, raw) = field("opt_second")?;
        let opt_second = parse_floats_opt(&raw, ln)?.unwrap_or_default();
        for (name, value) in [("best_val", "-"), ("stall", "0"), ("best_params", "-")] {
            let (ln, raw) = field(name)?;
            if raw != value {
                return Err(parse_err(ln, "validation state is not supported"));
            }
        }
        let (ln, raw) = field("loss_history")?;
        let loss_history = parse_floats_opt(&raw, ln)?.unwrap_or_default();
        let (ln, raw) = field("val_history")?;
        if raw != "-" {
            return Err(parse_err(ln, "validation state is not supported"));
        }

        // Preserve the document's own trailing-newline state so the
        // network parser's truncation guard still sees a torn final
        // line for what it is.
        let mut body = lines.map(|(_, l)| l).collect::<Vec<&str>>().join("\n");
        if text.ends_with('\n') {
            body.push('\n');
        }
        let mlp = Mlp::from_text(&body)?;

        if loss_history.len() < epoch {
            return Err(parse_err(0, "loss history shorter than epoch count"));
        }
        Ok(Checkpoint {
            epoch,
            attempt,
            recovery_attempts,
            opt_step,
            opt_velocity,
            opt_second,
            loss_history,
            mlp,
        })
    }

    /// Writes the checkpoint to `path` crash-safely through `fs`
    /// (failpoint site `nn.checkpoint.write`): the text is staged in a
    /// sibling temp file, fsynced to stable storage, then atomically
    /// renamed into place. A crash at any point leaves either the
    /// previous complete checkpoint or a stray `.tmp` that [`load`]
    /// rejects — never a truncated checkpoint under the real name.
    ///
    /// [`load`]: Checkpoint::load
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] naming the path on filesystem failure.
    pub fn save_with(&self, fs: &dyn Fs, path: &Path) -> Result<(), NnError> {
        wlc_fault::write_atomic(fs, "nn.checkpoint.write", path, self.to_text().as_bytes()).map_err(
            |e| NnError::Io {
                path: path.display().to_string(),
                reason: e.to_string(),
            },
        )
    }

    /// [`save_with`](Checkpoint::save_with) against the real filesystem.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), NnError> {
        self.save_with(&wlc_fault::RealFs, path.as_ref())
    }

    /// Reads a checkpoint from `path` through `fs` (failpoint site
    /// `nn.checkpoint.load`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] naming the path on filesystem failure and
    /// [`NnError::Parse`] on corrupt content.
    pub fn load_with(fs: &dyn Fs, path: &Path) -> Result<Checkpoint, NnError> {
        let text = fs
            .read_to_string("nn.checkpoint.load", path)
            .map_err(|e| NnError::Io {
                path: path.display().to_string(),
                reason: e.to_string(),
            })?;
        Self::from_text(&text)
    }

    /// [`load_with`](Checkpoint::load_with) against the real filesystem.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Checkpoint, NnError> {
        Self::load_with(&wlc_fault::RealFs, path.as_ref())
    }
}

fn parse_err(line: usize, reason: &str) -> NnError {
    NnError::Parse {
        line,
        reason: reason.to_string(),
    }
}

/// Parses a space-separated float list; `-` means "absent".
fn parse_floats_opt(s: &str, line: usize) -> Result<Option<Vec<f64>>, NnError> {
    if s == "-" {
        return Ok(None);
    }
    s.split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|_| parse_err(line, "bad float in checkpoint header"))
        })
        .collect::<Result<Vec<f64>, NnError>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, MlpBuilder};

    fn sample() -> Checkpoint {
        let mlp = MlpBuilder::new(2)
            .hidden(3, Activation::tanh())
            .output(1, Activation::identity())
            .seed(5)
            .build()
            .unwrap();
        let n = mlp.param_count();
        Checkpoint {
            epoch: 7,
            attempt: 1,
            recovery_attempts: 1,
            opt_step: 7,
            opt_velocity: vec![0.125; n],
            opt_second: Vec::new(),
            loss_history: vec![1.0, 0.5, 0.25, 0.2, 0.19, 0.185, 0.18],
            mlp,
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let ck = sample();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn roundtrip_without_optional_fields() {
        let mut ck = sample();
        ck.opt_velocity = Vec::new();
        let back = Checkpoint::from_text(&ck.to_text()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        let ck = sample();
        let text = ck.to_text();
        assert!(matches!(
            Checkpoint::from_text(&text.replacen("wlc-nn-checkpoint", "nope", 1)),
            Err(NnError::Parse { line: 1, .. })
        ));
        for keep in [1, 3, 8, 12] {
            let short: String = text.lines().take(keep).collect::<Vec<_>>().join("\n");
            assert!(Checkpoint::from_text(&short).is_err(), "kept {keep} lines");
        }
    }

    #[test]
    fn rejects_validation_state() {
        let text = sample().to_text();
        for (line, bad) in [
            ("best_val -", "best_val 0.375"),
            ("stall 0", "stall 2"),
            ("best_params -", "best_params 0.5"),
            ("val_history -", "val_history 1.1 0.6"),
        ] {
            assert!(text.contains(line), "{line}");
            let err = Checkpoint::from_text(&text.replacen(line, bad, 1)).unwrap_err();
            assert!(err.to_string().contains("validation state"), "{err}");
        }
    }

    #[test]
    fn rejects_inconsistent_history() {
        let ck = sample();
        let text = ck.to_text().replacen("epoch 7", "epoch 99", 1);
        assert!(Checkpoint::from_text(&text).is_err());
    }

    #[test]
    fn crash_mid_write_leaves_previous_checkpoint_resumable() {
        let ck = sample();
        let dir = std::env::temp_dir().join(format!("wlc-nn-ckpt-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        ck.save(&path).unwrap();

        // Simulate a crash mid-write of the *next* checkpoint: the temp
        // file holds a truncated prefix and the rename never happened.
        let partial: String = ck.to_text().lines().take(5).collect::<Vec<_>>().join("\n");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, partial).unwrap();

        // The partial file is rejected outright ...
        assert!(Checkpoint::load(&tmp).is_err());
        // ... and the previous complete checkpoint is what resumes.
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_roundtrip_and_io_errors() {
        let ck = sample();
        let dir = std::env::temp_dir().join("wlc-nn-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_file(&path).unwrap();
        let missing = Checkpoint::load(dir.join("missing.ckpt"));
        match missing {
            Err(NnError::Io { path, .. }) => assert!(path.contains("missing.ckpt")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
