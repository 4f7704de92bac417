//! `wlc train` — train the MLP workload model on a CSV dataset.

use wlc_data::{Dataset, ValidateMode, ValidationReport};
use wlc_model::WorkloadModelBuilder;
use wlc_nn::Checkpoint;

use crate::args::Flags;

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc train — train the MLP workload model on a CSV dataset

FLAGS:
    --data <path>       input CSV (from `wlc collect`)     (required)
    --out <path>        output model file                  (required)
    --hidden <list>     hidden widths, e.g. 16,12          [default: 16,12]
    --epochs <usize>    epoch budget                       [default: 6000]
    --lr <f64>          learning rate                      [default: 0.02]
    --threshold <f64>   loose-fit termination threshold    [default: 1e-3]
    --seed <u64>        weight-init / shuffle seed         [default: 1]
    --jobs <usize>      row-band threads for the batched passes; the
                        trained model is bitwise identical for any
                        setting                            [default: 1]
    --mode <m>          CSV validation: strict | repair    [default: strict]
    --retries <usize>   divergence-recovery restarts       [default: 0]
    --checkpoint-every <usize>  epochs between checkpoints [default: off]
    --checkpoint <path> checkpoint file          [default: <out>.ckpt]
    --resume <path>     continue from a checkpoint file

Exits 3 when --mode strict rejects the CSV, 4 when training diverges
beyond --retries. A run killed mid-way can be continued with --resume;
with the same flags the result is bit-identical to an uninterrupted run.";

/// Loads the dataset under the requested validation mode, reporting any
/// repaired rows on stderr.
pub(super) fn load_validated(
    flags: &Flags,
    path: &str,
) -> Result<Dataset, Box<dyn std::error::Error>> {
    let mode: ValidateMode = flags.get_or("mode", ValidateMode::Strict)?;
    let (dataset, report) = Dataset::load_csv_validated(path, mode)?;
    describe_validation(&report);
    Ok(dataset)
}

pub(super) fn describe_validation(report: &ValidationReport) {
    if !report.is_clean() {
        eprintln!("repaired input: {report}");
        for issue in &report.issues {
            eprintln!("  dropped {issue}");
        }
    }
}

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let dataset = load_validated(&flags, flags.required("data")?)?;
    eprintln!("loaded {dataset}");
    let out = flags.required("out")?;

    let mut builder = WorkloadModelBuilder::new()
        .max_epochs(flags.get_or("epochs", 6000)?)
        .learning_rate(flags.get_or("lr", 0.02)?)
        .optimizer(wlc_nn::OptimizerKind::adam())
        .termination_threshold(flags.get_or("threshold", 1e-3)?)
        .seed(flags.get_or("seed", 1)?)
        .jobs(flags.get_or("jobs", 1usize)?);
    if let Some(hidden) = flags.get_list::<usize>("hidden")? {
        builder = builder.no_hidden_layers();
        for w in hidden {
            builder = builder.hidden_layer(w);
        }
    }
    let retries: usize = flags.get_or("retries", 0)?;
    if retries > 0 {
        builder = builder.recover(retries);
    }
    let every: usize = flags.get_or("checkpoint-every", 0)?;
    let ckpt_path: String = flags.get_or("checkpoint", format!("{out}.ckpt"))?;
    if every > 0 {
        builder = builder.checkpoint(&ckpt_path, every);
        eprintln!("checkpointing to {ckpt_path} every {every} epochs");
    }

    let outcome = match flags.get_or("resume", String::new())? {
        resume if resume.is_empty() => builder.train(&dataset)?,
        resume => {
            let ck = Checkpoint::load(&resume)?;
            eprintln!(
                "resuming from {resume} (epoch {}, attempt {})",
                ck.epochs_completed(),
                ck.attempt()
            );
            builder.train_resuming(&dataset, &ck)?
        }
    };
    outcome.model.save(out)?;

    let report = outcome.model.evaluate(&dataset)?;
    println!(
        "trained {:?} in {} epochs ({})",
        outcome.model.topology(),
        outcome.report.epochs_run,
        outcome.report.stop_reason
    );
    if outcome.report.recovery_attempts > 0 {
        println!(
            "recovered from divergence after {} restart(s)",
            outcome.report.recovery_attempts
        );
    }
    println!(
        "training-set error per indicator: {}",
        report
            .outputs()
            .iter()
            .map(|o| format!("{} {:.1}%", o.name, o.harmonic_mean_error * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("model written to {out}");
    Ok(())
}
