//! Integration coverage for the extension APIs through the facade crate:
//! hyper-parameter search, sensitivity analysis, the RBF baseline and the
//! analytic queueing approximation.

use wlc::data::design::ParamRange;
use wlc::model::baseline::RbfModel;
use wlc::model::sensitivity::first_order_indices;
use wlc::model::{HyperParameterSearch, PerformanceModel, WorkloadModelBuilder};
use wlc::sim::analytic::approximate_response_times;
use wlc::sim::{run_design, DbModel, HardwareModel, ServerConfig, WorkloadSpec};

fn small_dataset() -> wlc::data::Dataset {
    let mut configs = Vec::new();
    for &rate in &[250.0, 450.0] {
        for &d in &[6.0, 10.0, 16.0] {
            for &w in &[7.0, 12.0] {
                configs.push(ServerConfig::from_vector(&[rate, d, 16.0, w]).expect("valid"));
            }
        }
    }
    run_design(&configs, 31, 5.0, 1.0).expect("simulation succeeds")
}

fn quick_builder() -> WorkloadModelBuilder {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(10)
        .max_epochs(600)
        .learning_rate(0.02)
        .optimizer(wlc::nn::OptimizerKind::adam())
        .seed(2)
}

#[test]
fn hyperparameter_search_on_simulated_data() {
    let ds = small_dataset();
    let outcome = HyperParameterSearch::new(quick_builder())
        .topologies(vec![vec![6], vec![12]])
        .thresholds(vec![Some(1e-3)])
        .learning_rates(vec![0.02])
        .seed(4)
        .run(&ds)
        .expect("search succeeds");
    assert_eq!(outcome.candidates.len(), 2);
    assert!(outcome.candidates[0].validation_error <= outcome.candidates[1].validation_error);
    assert_eq!(outcome.best.model.inputs(), 4);
}

#[test]
fn sensitivity_finds_injection_rate_dominant_for_throughput() {
    let ds = small_dataset();
    let model = quick_builder().train(&ds).expect("training succeeds").model;
    let ranges = [
        ParamRange::new(250.0, 450.0).expect("valid"),
        ParamRange::new(6.0, 16.0).expect("valid"),
        ParamRange::new(16.0, 16.0).expect("valid"),
        ParamRange::new(7.0, 12.0).expect("valid"),
    ];
    // Output 4 = throughput: in this healthy region it tracks the
    // injection rate almost exclusively.
    let report = first_order_indices(&model, 4, &ranges, 24, 24, 3).expect("indices computable");
    assert_eq!(report.dominant_input(), 0, "{report:?}");
    assert!(report.first_order[0] > 0.5, "{report:?}");
}

#[test]
fn rbf_baseline_fits_simulated_data() {
    let ds = small_dataset();
    let rbf = RbfModel::fit(&ds, 8, 3).expect("fit succeeds");
    let (xs, ys) = ds.to_matrices();
    let predicted = rbf.predict_batch(&xs).expect("predict succeeds");
    let report = wlc::data::metrics::ErrorReport::compare(ds.output_names(), &ys, &predicted)
        .expect("metrics computable");
    assert!(report.overall_error() < 0.5, "{}", report.overall_error());
}

#[test]
fn analytic_approximation_available_through_facade() {
    let config = ServerConfig::from_vector(&[200.0, 10.0, 16.0, 10.0]).expect("valid");
    let rts = approximate_response_times(
        &config,
        &WorkloadSpec::default(),
        &HardwareModel::default(),
        &DbModel::default(),
    )
    .expect("stable configuration");
    assert!(rts.iter().all(|&rt| rt > 0.0 && rt < 0.5));
}
