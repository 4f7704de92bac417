//! Pins the exact bytes of the text files wlc writes besides
//! checkpoints: a dataset CSV, a model file (both scaler lines and the
//! network lines) and a linear baseline. Collected datasets, trained
//! models and served fallbacks are read back from these files, and the
//! committed `results/` hold none of them byte for byte, so each is
//! compared with a committed string here.
//!
//! The values sit where printing a float is hardest: signed zero, the
//! smallest subnormal, both sides of the switch to exponent form at 1e16
//! and below 1e-4, integers, 17-digit values, two exact ties between
//! shortest candidates (2^-25 and 1658206780088562.25, which print
//! rounded up), and a value that leaves core's fast path.

use wlc_data::{Dataset, Sample};
use wlc_model::baseline::LinearModel;
use wlc_model::WorkloadModel;

/// The pinned CSV's values, row by row; the model and baseline texts
/// carry the same ones in other places.
const VALUES: [f64; 12] = [
    -0.0,
    5e-324,
    1e-5,
    0.0001,
    9999999999999998.0,
    1e16,
    1.0 / 33554432.0,
    1658206780088562.0 + 0.25,
    0.04105526295482766,
    0.30000000000000004,
    3.0,
    -123456.789,
];

#[test]
fn dataset_csv_bytes_are_pinned() {
    let mut ds = Dataset::new(
        vec!["clients".into(), "think_s".into()],
        vec!["rt_s".into(), "tput".into()],
    )
    .unwrap();
    for chunk in VALUES.chunks(4) {
        ds.push(Sample::new(chunk[..2].to_vec(), chunk[2..].to_vec()))
            .unwrap();
    }
    assert_eq!(ds.to_csv_string(), CSV);
}

#[test]
fn model_text_bytes_are_pinned() {
    let model = WorkloadModel::from_text(MODEL).unwrap();
    assert_eq!(model.to_text(), MODEL);
}

#[test]
fn a_model_file_with_the_older_slope_text_loads_to_the_same_network() {
    // Model files written before the slope printed through `write_f64`
    // name the activation `logistic(1)`.
    let older = MODEL.replace("logistic(1.0)", "logistic(1)");
    assert_ne!(older, MODEL);
    let model = WorkloadModel::from_text(&older).unwrap();
    assert_eq!(model, WorkloadModel::from_text(MODEL).unwrap());
    assert_eq!(model.to_text(), MODEL);
}

#[test]
fn linear_baseline_text_bytes_are_pinned() {
    let model = LinearModel::from_text(LINEAR).unwrap();
    assert_eq!(model.to_text(), LINEAR);
}

const CSV: &str = "\
clients,think_s,rt_s*,tput*
-0.0,5e-324,1e-5,0.0001
9999999999999998.0,1e16,2.9802322387695313e-8,1658206780088562.3
0.04105526295482766,0.30000000000000004,3.0,-123456.789
";

const MODEL: &str = "\
wlc-model v1
inputs clients,think_s
outputs rt_s,tput
xscaler standard -0.0 1e16 | 0.0001 9999999999999998.0
yscaler minmax 5e-324 -123456.789 | 0.30000000000000004 1e-5
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1.0)
w 2.9802322387695313e-8 1658206780088562.3
w 0.04105526295482766 -0.0
w 1e-5 3.0
b 0.0001 9999999999999998.0 5e-324
layer 3 2 identity
w 1e16 -123456.789 0.30000000000000004
w -2.9802322387695313e-8 -1658206780088562.3 -0.04105526295482766
b -1e-5 -0.0001
";

const LINEAR: &str = "\
wlc-linear v1
features first-order
inputs 2
ridge 1e-5
coef 3 2
-0.0 5e-324
9999999999999998.0 1e16
2.9802322387695313e-8 1658206780088562.3
";
