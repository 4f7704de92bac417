//! Ablation for the paper's §3.2 discussion: "when it comes to [the node
//! count] there seems to be no definite answer" — it depends on the data,
//! noise and workload complexity.
//!
//! Sweeps the hidden-layer width on the paper pipeline and reports
//! held-out error and training cost, reproducing the qualitative
//! trade-off: too few nodes underfit, more nodes cost training time with
//! diminishing returns, far too many start overfitting the sample noise.
//!
//! Stdout is a pure function of the seed: it counts training cost in
//! epochs. Each width's wall time goes to stderr.

use wlc_bench::{paper_dataset, paper_model_builder};
use wlc_data::metrics::ErrorReport;
use wlc_data::train_test_split;
use wlc_math::rng::Seed;
use wlc_model::report::format_table;
use wlc_model::PerformanceModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("collecting 60 simulated samples...");
    let dataset = paper_dataset(60, 42)?;
    let (train_idx, val_idx) = train_test_split(dataset.len(), 0.25, Seed::new(6))?;
    let train = dataset.subset(&train_idx)?;
    let val = dataset.subset(&val_idx)?;
    let (vx, vy) = val.to_matrices();

    let mut rows = Vec::new();
    for width in [1usize, 2, 4, 8, 16, 32, 64] {
        let start = std::time::Instant::now();
        let outcome = paper_model_builder()
            .no_hidden_layers()
            .hidden_layer(width)
            .train(&train)?;
        eprintln!(
            "{width} hidden nodes trained in {:.2} s",
            start.elapsed().as_secs_f64()
        );
        let predicted = outcome.model.predict_batch(&vx)?;
        let report = ErrorReport::compare(val.output_names(), &vy, &predicted)?;
        let train_err = outcome.model.evaluate(&train)?;
        rows.push(vec![
            width.to_string(),
            format!("{:.1} %", train_err.overall_error() * 100.0),
            format!("{:.1} %", report.overall_error() * 100.0),
            format!("{}", outcome.report.epochs_run),
        ]);
    }

    println!("Ablation: hidden node count (paper §3.2)");
    println!(
        "{}",
        format_table(
            &[
                "hidden nodes".into(),
                "train error".into(),
                "held-out error".into(),
                "epochs".into(),
            ],
            &rows,
        )
    );
    println!("=> as §3.2 says, there is no definite answer: accuracy saturates once");
    println!("   the width passes the workload's complexity, while cost keeps rising.");
    Ok(())
}
