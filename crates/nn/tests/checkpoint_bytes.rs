//! Pins the exact bytes of the checkpoints `Trainer` writes. A killed
//! `wlc train --checkpoint-every` run and a `wlc learn` state directory
//! resume from these files, so the text format must not drift: every
//! header line, float and network line is compared with a committed
//! string, in one full-batch and one minibatch configuration.

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
    let dir: PathBuf =
        std::env::temp_dir().join(format!("wlc-nn-ckpt-bytes-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.ckpt");
    let (xs, ys) = data();
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
    .fit(&mut mlp, &xs, &ys)
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

const FULL_BATCH: &str = "\
wlc-nn-checkpoint v1
epoch 4
attempt 0
recovery_attempts 0
opt_step 4
opt_velocity 0.023256201404019475 0.09625350507586092 -0.037962363062018695 -0.11191018923109503 0.0892100817742413 0.2595308643721271 0.04102942691686165 -0.03296016853175648 0.08472808363466594 -0.04798902008015608 0.18660244701569895 0.24505930229162803 0.3648965440205913
opt_second -
best_val -
stall 0
best_params -
loss_history 0.06824129055714473 0.049824593186548395 0.05606933230694416 0.06822291873844105
val_history -
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1)
w -0.9833189813873099 -0.7446693960619112
w 0.4898094104064244 -0.13052154204074795
w 0.9858690919134516 -0.146059666713451
b -0.022339205275432567 0.019996226180458793 -0.04795771487714242
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
opt_velocity -0.0007411504969789059 0.01263732140895853 -0.0025714038969328625 -0.016899280330190343 0.007563057767595086 0.03717971173417451 0.004005845919458123 -0.0012890390497556064 0.005471974528329372 -0.020659881434901467 0.017312176040716144 0.007959552909217347 0.02492985873700192
opt_second 4.229862244129702e-6 6.1161099854550065e-6 5.907017159737869e-6 1.4104472792756039e-5 2.371538888558626e-5 6.341420976425506e-5 9.717118621879286e-6 1.3297460581554094e-5 6.116431179360793e-5 0.00037427129647522596 0.00026630283239323116 0.000264121173144912 0.0009872190517396136
best_val -
stall 0
best_params -
loss_history 0.04854435666505028 0.027157602689748223 0.01687717501563912 0.01735289746261049
val_history -
wlc-nn-mlp v1
layers 2
layer 2 3 logistic(1)
w -1.0788383828570063 -1.2080667197586445
w 0.6625867754499374 0.29817678232043876
w 0.8098932851184313 -0.5361571720106755
b -0.07531804496185733 0.007049287677413081 -0.024632361772476453
layer 3 1 identity
w 0.6249443921920808 -0.4666220311536472 1.135492478429068
b -0.039880839798738944
";
