//! `wlc cv` — k-fold cross validation on a CSV dataset (the paper's
//! Table 2 protocol).

use std::time::Instant;

use wlc_model::{CrossValidator, WorkloadModelBuilder};

use crate::args::Flags;

use super::{usage, CmdResult};

const USAGE: &str = "\
wlc cv — k-fold cross validation (paper Table 2 protocol)

FLAGS:
    --data <path>       input CSV (from `wlc collect`)     (required)
    --k <usize>         number of folds                    [default: 5]
    --hidden <list>     hidden widths, e.g. 16,12          [default: 16,12]
    --epochs <usize>    epoch budget per fold              [default: 6000]
    --lr <f64>          learning rate                      [default: 0.02]
    --threshold <f64>   termination threshold              [default: 1e-3]
    --seed <u64>        fold-assignment / weight seed      [default: 7]
    --jobs <usize>      fold worker threads        [default: available cores]
    --mode <m>          CSV validation: strict | repair    [default: strict]
    --retries <usize>   per-fold retraining attempts       [default: 0]
    --quarantine        drop failed folds, aggregate survivors
    --force-diverge <list>  fold indices whose first attempt is forced to
                            diverge (fault-injection test hook)

The report is bit-identical for any --jobs value: each fold's split and
weight seed depend only on the fold index, --seed and the retry attempt.
Without --quarantine a failed fold aborts with exit code 4; with it, the
run succeeds while listing quarantined folds (all folds failing is still
exit code 4).";

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = Flags::parse(raw, &["quarantine"])?;
    let dataset = super::train::load_validated(&flags, flags.required("data")?)?;
    eprintln!("loaded {dataset}");

    let mut builder = WorkloadModelBuilder::new()
        .max_epochs(flags.get_or("epochs", 6000)?)
        .learning_rate(flags.get_or("lr", 0.02)?)
        .optimizer(wlc_nn::OptimizerKind::adam())
        .termination_threshold(flags.get_or("threshold", 1e-3)?);
    if let Some(hidden) = flags.get_list::<usize>("hidden")? {
        builder = builder.no_hidden_layers();
        for w in hidden {
            builder = builder.hidden_layer(w);
        }
    }

    let jobs: usize = flags.get_or("jobs", wlc_exec::default_jobs())?;
    let mut validator = CrossValidator::new(builder)
        .k(flags.get_or("k", 5)?)
        .seed(flags.get_or("seed", 7)?)
        .jobs(jobs)
        .retries(flags.get_or("retries", 0)?)
        .quarantine(flags.switch("quarantine"));
    if let Some(folds) = flags.get_list::<usize>("force-diverge")? {
        validator = validator.force_diverge(&folds);
    }
    let started = Instant::now();
    let report = validator.run(&dataset)?;
    eprintln!(
        "cross-validated on {jobs} worker(s) in {:.3}s",
        started.elapsed().as_secs_f64()
    );

    println!("{}", report.to_table());
    if !report.is_complete() {
        println!(
            "aggregating {} surviving fold(s); {} quarantined",
            report.trials().len(),
            report.quarantined().len()
        );
    }
    println!(
        "overall average prediction accuracy: {:.1} %",
        report.overall_accuracy() * 100.0
    );
    Ok(())
}
