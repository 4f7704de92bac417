//! Counting-allocator proof that steady-state training is allocation-free.
//!
//! The workspace refactor's core claim is that after the first epoch warms
//! the scratch buffers, the train/predict hot path performs **zero** heap
//! allocations per epoch. This integration test installs a counting global
//! allocator and asserts exactly that, at two levels:
//!
//! 1. the raw epoch cycle (`gather → batch_gradient_with → optimizer.step
//!    → batch_loss_with`) allocates nothing once warm, and
//! 2. a full [`Trainer::fit`] run allocates the same total count whether it
//!    trains 20 epochs or 120 — i.e. all allocation is setup, none per epoch
//!    — in minibatches and in full batch.
//!
//! A third test holds the serving path's forward pass to the same claim:
//! a warm `Mlp::forward_batch_with` and a warm one-member
//! [`BandEngine::forward_batch`] allocate nothing. A fourth checks that a
//! forward-only workspace never holds the gradient buffers: they grow on
//! the first gradient pass, after which neither pass allocates.
//!
//! The counter is per thread, so an allocation on another thread, such
//! as the test harness's, never lands in a measured window. Training
//! runs at `jobs(1)`, so all of the measured work runs, and is counted,
//! on the test's own thread. This is an integration test (its own
//! crate) because the library itself is `#![forbid(unsafe_code)]` and a
//! `GlobalAlloc` impl requires `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wlc_math::Matrix;
use wlc_nn::{
    Activation, BandEngine, Loss, MlpBuilder, OptimizerKind, TrainConfig, Trainer, Workspace,
};

struct CountingAlloc;

thread_local! {
    /// Heap allocations made by the current thread. `const`-initialised
    /// with no destructor, so reading it never allocates.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread; a thread whose locals
/// are already torn down goes uncounted.
fn count_alloc() {
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The count touches only a
// thread-local `Cell` with a `const` initialiser and no destructor, so
// it neither allocates (no recursion into this allocator) nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations the current thread has made so far.
fn alloc_calls() -> usize {
    ALLOC_CALLS.with(Cell::get)
}

fn training_data() -> (Matrix, Matrix) {
    // y = (x0², x0·x1) on a small grid — shape (9, 2) → (9, 2).
    let mut xs = Matrix::zeros(9, 2);
    let mut ys = Matrix::zeros(9, 2);
    for i in 0..3 {
        for j in 0..3 {
            let r = i * 3 + j;
            let (a, b) = (i as f64 - 1.0, j as f64 - 1.0);
            xs.row_mut(r).copy_from_slice(&[a, b]);
            ys.row_mut(r).copy_from_slice(&[a * a, a * b]);
        }
    }
    (xs, ys)
}

/// Heap allocations of one `Trainer::fit` run; `batch: None` trains
/// full batch (one pass per epoch), `Some(b)` in shuffled minibatches.
fn fit_alloc_count(epochs: usize, batch: Option<usize>) -> usize {
    let (xs, ys) = training_data();
    let mut mlp = MlpBuilder::new(2)
        .hidden(6, Activation::tanh())
        .output(2, Activation::identity())
        .seed(3)
        .build()
        .unwrap();
    let mut config = TrainConfig::new()
        .max_epochs(epochs)
        .learning_rate(0.05)
        .optimizer(OptimizerKind::adam())
        .rng_seed(7)
        .jobs(1);
    if let Some(b) = batch {
        config = config.batch_size(b);
    }
    let before = alloc_calls();
    Trainer::new(config).fit(&mut mlp, &xs, &ys).unwrap();
    alloc_calls() - before
}

#[test]
fn steady_state_training_does_not_allocate() {
    let (xs, ys) = training_data();
    let mlp = MlpBuilder::new(2)
        .hidden(6, Activation::tanh())
        .output(2, Activation::identity())
        .seed(1)
        .build()
        .unwrap();

    // --- Level 1: the raw epoch cycle, warmed then measured. ---
    let mut ws = Workspace::for_mlp(&mlp);
    let mut optimizer = OptimizerKind::adam().into_optimizer();
    let mut params = mlp.params_flat();
    let mut model = mlp.clone();
    let mut bx = Matrix::zeros(0, xs.cols());
    let mut by = Matrix::zeros(0, ys.cols());
    let indices: Vec<usize> = (0..xs.rows()).collect();
    let batch = 4;

    let cycle = |model: &mut wlc_nn::Mlp,
                 params: &mut Vec<f64>,
                 ws: &mut Workspace,
                 bx: &mut Matrix,
                 by: &mut Matrix,
                 optimizer: &mut wlc_nn::Optimizer| {
        for chunk in indices.chunks(batch) {
            model.set_params_flat(params).unwrap();
            bx.resize_rows(chunk.len());
            by.resize_rows(chunk.len());
            for (out_r, &r) in chunk.iter().enumerate() {
                bx.row_mut(out_r).copy_from_slice(xs.row(r));
                by.row_mut(out_r).copy_from_slice(ys.row(r));
            }
            model
                .batch_gradient_with(bx, by, Loss::MeanSquared, ws)
                .unwrap();
            let norm_sq = ws.grad().iter().map(|g| g * g).sum::<f64>();
            assert!(norm_sq.is_finite());
            optimizer.step(params, ws.grad(), 0.05).unwrap();
        }
        model.set_params_flat(params).unwrap();
        model
            .batch_loss_with(&xs, &ys, Loss::MeanSquared, ws)
            .unwrap()
    };

    // Warm up: workspace growth, minibatch buffers, lazy optimizer state.
    for _ in 0..3 {
        cycle(
            &mut model,
            &mut params,
            &mut ws,
            &mut bx,
            &mut by,
            &mut optimizer,
        );
    }

    let before = alloc_calls();
    let mut last_loss = f64::INFINITY;
    for _ in 0..200 {
        last_loss = cycle(
            &mut model,
            &mut params,
            &mut ws,
            &mut bx,
            &mut by,
            &mut optimizer,
        );
    }
    let during = alloc_calls() - before;
    assert!(last_loss.is_finite());
    assert_eq!(
        during, 0,
        "steady-state epoch cycle performed {during} heap allocations over 200 epochs"
    );

    // --- Level 2: Trainer::fit allocation count is epoch-independent
    // (modulo the loss-history reserve, which is one allocation either
    // way). 20 vs 120 epochs must cost the identical number of calls,
    // for minibatches and for the full-batch one-pass epoch loop. ---
    for batch in [Some(4), None] {
        let short = fit_alloc_count(20, batch);
        let long = fit_alloc_count(120, batch);
        assert_eq!(
            short, long,
            "Trainer::fit allocation count grew with epochs at batch {batch:?}: \
             20 epochs = {short}, 120 epochs = {long}"
        );
    }
}

#[test]
fn warm_forward_does_not_allocate() {
    // The paper topology, 4-16-12-5.
    let mlp = MlpBuilder::new(4)
        .hidden(16, Activation::logistic())
        .hidden(12, Activation::logistic())
        .output(5, Activation::identity())
        .seed(2)
        .build()
        .unwrap();
    let mut ws = Workspace::for_mlp(&mlp);
    let mut engine = BandEngine::new(1);
    // One row (a `/predict`) and four bands (a large `/predict_batch`).
    for rows in [1, 256] {
        let xs = Matrix::from_fn(rows, 4, |r, c| ((r * 4 + c) % 7) as f64 * 0.25 - 0.75);
        // Warm up: the workspace grows to this batch size.
        mlp.forward_batch_with(&xs, &mut ws).unwrap();
        let before = alloc_calls();
        for _ in 0..10 {
            mlp.forward_batch_with(&xs, &mut ws).unwrap();
            engine.forward_batch(&mlp, &xs, &mut ws).unwrap();
        }
        let during = alloc_calls() - before;
        assert_eq!(
            during, 0,
            "warm forward passes of {rows} rows performed {during} heap allocations"
        );
    }
}

#[test]
fn gradient_buffers_grow_on_the_first_gradient_pass() {
    let mlp = MlpBuilder::new(4)
        .hidden(16, Activation::logistic())
        .hidden(12, Activation::logistic())
        .output(5, Activation::identity())
        .seed(4)
        .build()
        .unwrap();
    // A 64-row band and a ragged 39-row one, as in cross validation.
    let xs = Matrix::from_fn(103, 4, |r, c| ((r * 4 + c) % 9) as f64 * 0.2 - 0.8);
    let ys = Matrix::from_fn(103, 5, |r, c| ((r + c) % 5) as f64 * 0.3 - 0.6);
    let mut ws = Workspace::for_mlp(&mlp);
    mlp.forward_batch_with(&xs, &mut ws).unwrap();
    assert!(ws.grad().is_empty(), "a forward pass grew the gradient");
    let before = alloc_calls();
    mlp.forward_batch_with(&xs, &mut ws).unwrap();
    assert_eq!(alloc_calls() - before, 0, "warm forward pass allocated");

    let before = alloc_calls();
    mlp.batch_gradient_with(&xs, &ys, Loss::MeanSquared, &mut ws)
        .unwrap();
    assert!(
        alloc_calls() > before,
        "the first gradient pass grew nothing"
    );
    assert_eq!(ws.grad().len(), mlp.param_count());

    let before = alloc_calls();
    for _ in 0..10 {
        mlp.batch_gradient_with(&xs, &ys, Loss::MeanSquared, &mut ws)
            .unwrap();
        mlp.forward_batch_with(&xs, &mut ws).unwrap();
    }
    let during = alloc_calls() - before;
    assert_eq!(during, 0, "warm passes performed {during} heap allocations");
}
