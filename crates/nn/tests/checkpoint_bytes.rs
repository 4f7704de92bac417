//! Pins the exact bytes of the checkpoints `Trainer` writes. A killed
//! `wlc train --checkpoint-every` run and a `wlc learn` state directory
//! resume from these files, so the text format must not drift: every
//! header line, float and network line is compared with a committed
//! string, in one full-batch and one minibatch configuration, and in
//! a run whose first attempt diverges and whose retry recovers.

use std::path::PathBuf;

use wlc_math::Matrix;
use wlc_nn::{Activation, MlpBuilder, OptimizerKind, TrainConfig, Trainer};

fn data() -> (Matrix, Matrix) {
    let xs = Matrix::from_rows(&[
        &[-1.0, 0.5],
        &[-0.5, -1.0],
        &[0.0, 0.25],
        &[0.5, 1.0],
        &[1.0, -0.5],
        &[1.5, 0.0],
    ])
    .unwrap();
    let ys = Matrix::from_rows(&[&[0.2], &[0.9], &[0.4], &[0.1], &[0.7], &[0.5]]).unwrap();
    (xs, ys)
}

/// Trains a 2-3-1 logistic network for four epochs with a checkpoint
/// every two, and returns the text of the last checkpoint written.
fn checkpoint_text(name: &str, config: TrainConfig) -> String {
    let (xs, ys) = data();
    fit_checkpoint_text(name, config, &xs, &ys)
}

/// [`checkpoint_text`] on the given rows.
fn fit_checkpoint_text(name: &str, config: TrainConfig, xs: &Matrix, ys: &Matrix) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wlc-nn-ckpt-bytes-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.ckpt");
    let mut mlp = MlpBuilder::new(2)
        .hidden(3, Activation::logistic())
        .output(1, Activation::identity())
        .seed(7)
        .build()
        .unwrap();
    Trainer::new(
        config
            .max_epochs(4)
            .checkpoint_every(2)
            .checkpoint_path(&path),
    )
    .fit(&mut mlp, xs, ys)
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

#[test]
fn full_batch_checkpoint_bytes_are_pinned() {
    let config = TrainConfig::new()
        .learning_rate(0.1)
        .optimizer(OptimizerKind::momentum());
    assert_eq!(checkpoint_text("full", config), FULL_BATCH);
}

#[test]
fn minibatch_checkpoint_bytes_are_pinned() {
    let config = TrainConfig::new()
        .learning_rate(0.05)
        .batch_size(2)
        .optimizer(OptimizerKind::adam())
        .rng_seed(5);
    assert_eq!(checkpoint_text("mini", config), MINIBATCH);
}

#[test]
fn recovered_checkpoint_bytes_are_pinned() {
    // Attempt 0 diverges at rate 1e6 on targets scaled by 1e6. Attempt
    // 1 redraws the network from a re-derived seed and trains at the
    // backed-off rate 1e6 * 1e-8 to the epoch budget, so the last
    // checkpoint is attempt 1's.
    let (xs, ys) = data();
    let config = TrainConfig::new()
        .learning_rate(1e6)
        .recover(1)
        .retry_backoff(1e-8);
    let text = fit_checkpoint_text("recovered", config, &xs, &ys.scale(1e6));
    assert_eq!(text, RECOVERED);
}

const FULL_BATCH: &str = "\
wlc-nn-checkpoint v1
epoch 4
attempt 0
recovery_attempts 0
opt_step 4
opt_velocity 0.023256201404019475 0.09625350507586092 -0.0379623630620187 -0.11191018923109503 0.08921008177424132 0.2595308643721271 0.04102942691686165 -0.03296016853175648 0.08472808363466594 -0.04798902008015608 0.18660244701569892 0.24505930229162803 0.3648965440205913
opt_second -
best_val -
stall 0
best_params -
loss_history 0.06824129055714473 0.049824593186548395 0.05606933230694416 0.06822291873844105
val_history -
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1.0)
w -0.9833189813873099 -0.7446693960619112
w 0.4898094104064244 -0.13052154204074795
w 0.9858690919134516 -0.146059666713451
b -0.022339205275432563 0.019996226180458793 -0.04795771487714242
layer 3 1 identity
w 0.5157146111257864 -0.523093063222837 1.055792067097989
b -0.20304785099674144
";

const MINIBATCH: &str = "\
wlc-nn-checkpoint v1
epoch 4
attempt 0
recovery_attempts 0
opt_step 12
opt_velocity -0.0007411504969789128 0.012637321408958544 -0.0025714038969328573 -0.016899280330190367 0.007563057767595076 0.037179711734174566 0.0040058459194580774 -0.001289039049755563 0.005471974528329273 -0.02065988143490169 0.01731217604071592 0.007959552909217127 0.024929858737001515
opt_second 4.229862244129701e-6 6.11610998545501e-6 5.9070171597378695e-6 1.4104472792756054e-5 2.3715388885586266e-5 6.341420976425512e-5 9.717118621879279e-6 1.3297460581554102e-5 6.116431179360797e-5 0.00037427129647522634 0.0002663028323932312 0.0002641211731449121 0.000987219051739614
best_val -
stall 0
best_params -
loss_history 0.04854435666505028 0.027157602689748303 0.016877175015639085 0.01735289746261056
val_history -
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1.0)
w -1.0788383828570063 -1.2080667197586432
w 0.6625867754499369 0.2981767823204375
w 0.8098932851184317 -0.5361571720106743
b -0.07531804496185705 0.007049287677413061 -0.024632361772476383
layer 3 1 identity
w 0.6249443921920804 -0.466622031153647 1.1354924784290679
b -0.0398808397987388
";

const RECOVERED: &str = "\
wlc-nn-checkpoint v1
epoch 4
attempt 1
recovery_attempts 1
opt_step 4
opt_velocity -
opt_second -
best_val -
stall 0
best_params -
loss_history 276743106847.0224 253324875876.6957 232632526991.31497 214348767516.19263
val_history -
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1.0)
w 828.0077477175805 -931.6079119005099
w -528.0714235726251 536.417201246816
w 161.22221356825804 -159.0264272600376
b 2758.9398626408074 -1683.824213427105 538.2477536327082
layer 3 1 identity
w 29492.22565164593 4596.055215852107 29961.589225811957
b 34663.24172279488
";
