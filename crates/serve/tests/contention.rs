//! Contention tests for the serve-side tracked locks: the circuit
//! breaker's half-open probe under a thread stampede, and hot model
//! reload racing in-flight predictions. In debug builds both run under
//! the wlc-exec lock-order checker, which must observe the traffic
//! without firing.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use wlc_data::{Dataset, Sample};
use wlc_exec::tracked_acquisitions;
use wlc_model::baseline::{LinearFeatures, LinearModel};
use wlc_model::fallback::FallbackModel;
use wlc_model::{PerformanceModel, WorkloadModel, WorkloadModelBuilder};
use wlc_serve::{BreakerState, CircuitBreaker, ModelSlot};

fn dataset(inputs: usize) -> Dataset {
    let in_names: Vec<String> = (0..inputs).map(|i| format!("x{i}")).collect();
    let mut ds = Dataset::new(in_names, vec!["y".into()]).expect("valid dataset shape");
    for i in 0..12 {
        let x: Vec<f64> = (0..inputs).map(|j| (i + j) as f64).collect();
        let y = x.iter().sum::<f64>() * 0.5 + 1.0;
        ds.push(Sample::new(x, vec![y])).expect("consistent sample");
    }
    ds
}

fn model(seed: u64) -> WorkloadModel {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(4)
        .max_epochs(120)
        .seed(seed)
        .train(&dataset(2))
        .expect("tiny training run converges")
        .model
}

/// Eight threads hit the breaker exactly at the cooldown boundary; the
/// half-open state must admit exactly one probe, and a successful probe
/// must close the circuit for everyone.
#[test]
fn breaker_half_open_probe_admits_exactly_one_of_eight() {
    let before = tracked_acquisitions();
    let cooldown = Duration::from_millis(10);
    let breaker = Arc::new(CircuitBreaker::new(1, cooldown));
    let t0 = Instant::now();
    assert!(breaker.record_failure(t0), "threshold 1 opens immediately");
    assert_eq!(breaker.state(t0), BreakerState::Open);

    let probe_at = t0 + cooldown;
    let barrier = Arc::new(Barrier::new(8));
    let admitted = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let breaker = Arc::clone(&breaker);
            let barrier = Arc::clone(&barrier);
            let admitted = Arc::clone(&admitted);
            thread::spawn(move || {
                barrier.wait();
                if breaker.allow_primary(probe_at) {
                    admitted.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics under breaker contention");
    }
    assert_eq!(
        admitted.load(Ordering::SeqCst),
        1,
        "exactly one thread wins the half-open trial"
    );
    assert_eq!(breaker.state(probe_at), BreakerState::HalfOpen);

    // The winning probe succeeds: recovery is visible to every thread.
    breaker.record_success();
    assert_eq!(breaker.state(probe_at), BreakerState::Closed);
    assert!(breaker.allow_primary(probe_at));
    if cfg!(debug_assertions) {
        assert!(
            tracked_acquisitions() > before,
            "the tracked checker must observe the breaker traffic"
        );
    }
}

/// Hot reloads land while reader threads predict continuously: the
/// generation counter is monotone from every thread's perspective,
/// every snapshot keeps predicting finite outputs, and the final
/// generation equals the number of installs.
#[test]
fn model_reload_races_in_flight_predictions() {
    let before = tracked_acquisitions();
    let baseline = LinearModel::fit(&dataset(2), LinearFeatures::FirstOrder)
        .expect("baseline fits the tiny dataset");
    let bundle = FallbackModel::new(Some(model(1)), Some(baseline), vec![], vec![])
        .expect("bundle assembles");
    let slot = Arc::new(ModelSlot::new(bundle));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut last_generation = 0u64;
                let mut predictions = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let generation = slot.generation();
                    assert!(
                        generation >= last_generation,
                        "generation went backwards: {generation} < {last_generation}"
                    );
                    last_generation = generation;
                    let snapshot = slot.snapshot();
                    let y = snapshot
                        .primary()
                        .expect("the bundle keeps its primary across reloads")
                        .predict(&[3.0, 4.0])
                        .expect("snapshot predicts even mid-reload");
                    assert!(
                        y.iter().all(|v| v.is_finite()),
                        "prediction must stay finite across reloads: {y:?}"
                    );
                    predictions += 1;
                }
                predictions
            })
        })
        .collect();

    let mut last_installed = 0u64;
    for seed in 0..6 {
        last_installed = slot
            .install(model(100 + seed))
            .expect("validated reload installs");
    }
    stop.store(true, Ordering::Relaxed);

    let total: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader must not panic"))
        .sum();
    assert!(total > 0, "readers actually predicted");
    assert_eq!(last_installed, 6);
    assert_eq!(slot.generation(), 6);
    if cfg!(debug_assertions) {
        assert!(
            tracked_acquisitions() > before,
            "the tracked checker must observe the reload traffic"
        );
    }
}
