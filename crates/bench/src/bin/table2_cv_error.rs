//! Reproduces the paper's **Table 2**: average prediction error for the
//! validation set of a 5-fold cross validation, per performance
//! indicator and per trial.
//!
//! Paper targets (shape, not absolute values): response-time errors in
//! the 0.2–12.6 % range, throughput error 0.1–0.3 %, overall average
//! prediction accuracy ≈ 95 %. The committed `results/` file reproduces
//! the response-time range and the accuracy, but not the throughput
//! error: it averages 1.5 % (0.7–3.0 % per trial), 3.5–7× below the
//! dealer response times' 5.3–10.6 %.

use wlc_bench::{paper_dataset, paper_model_builder};
use wlc_model::CrossValidator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let samples = 50;
    eprintln!("collecting {samples} simulated samples (paper-style design)...");
    let dataset = paper_dataset(samples, 42)?;

    eprintln!("running 5-fold cross validation...");
    let report = CrossValidator::new(paper_model_builder())
        .k(5)
        .seed(7)
        .run(&dataset)?;

    println!("Table 2: Average Prediction Error for the Validation Set");
    println!("{}", report.to_table());
    println!(
        "overall average prediction error:    {:.1} %",
        report.overall_error() * 100.0
    );
    println!(
        "overall average prediction accuracy: {:.1} %",
        report.overall_accuracy() * 100.0
    );
    Ok(())
}
