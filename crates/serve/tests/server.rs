//! End-to-end tests for the prediction server: healthy serving,
//! overload shedding, deadlines, circuit-breaker degradation, hot
//! reload under concurrent load, graceful shutdown draining, and the
//! persistent-connection contract.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wlc_data::{Dataset, Sample};
use wlc_model::baseline::{LinearFeatures, LinearModel};
use wlc_model::fallback::FallbackModel;
use wlc_model::{PerformanceModel, WorkloadModel, WorkloadModelBuilder};
use wlc_serve::{
    http, ClientConfig, Json, ServeClient, ServeConfig, ServeError, ServeStats, Server,
};

fn dataset() -> Dataset {
    let mut ds = Dataset::new(vec!["a".into(), "b".into()], vec!["y".into()]).unwrap();
    for i in 0..6 {
        for j in 0..6 {
            let (a, b) = (i as f64 + 1.0, j as f64 + 1.0);
            ds.push(Sample::new(vec![a, b], vec![a * 2.0 + b + a * b * 0.1]))
                .unwrap();
        }
    }
    ds
}

fn mlp(seed: u64) -> WorkloadModel {
    WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(6)
        .max_epochs(200)
        .seed(seed)
        .train(&dataset())
        .unwrap()
        .model
}

fn baseline() -> LinearModel {
    LinearModel::fit(&dataset(), LinearFeatures::FirstOrder).unwrap()
}

fn full_bundle(seed: u64) -> FallbackModel {
    FallbackModel::new(Some(mlp(seed)), Some(baseline()), vec![], vec![]).unwrap()
}

/// Starts a server on an ephemeral port; returns its address and the
/// thread that resolves to the lifetime stats when the server drains.
fn start(bundle: FallbackModel, config: ServeConfig) -> (String, thread::JoinHandle<ServeStats>) {
    let server = Server::bind("127.0.0.1:0", bundle, config).unwrap();
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

fn quick_client(addr: &str) -> ServeClient {
    ServeClient::new(
        addr,
        ClientConfig {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    )
}

fn patient_client(addr: &str) -> ServeClient {
    ServeClient::new(
        addr,
        ClientConfig {
            max_attempts: 10,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            ..ClientConfig::default()
        },
    )
}

#[test]
fn healthy_serving_end_to_end() {
    let model = mlp(1);
    let expected = model.predict(&[2.0, 3.0]).unwrap();
    let bundle = FallbackModel::new(Some(model), Some(baseline()), vec![], vec![]).unwrap();
    let (addr, handle) = start(bundle, ServeConfig::default());
    let client = patient_client(&addr);

    assert_eq!(
        client
            .healthz()
            .unwrap()
            .get("status")
            .and_then(|s| s.as_str()),
        Some("ok")
    );
    assert_eq!(
        client
            .readyz()
            .unwrap()
            .get("ready")
            .and_then(|r| r.as_bool()),
        Some(true)
    );

    let prediction = client.predict(&[2.0, 3.0]).unwrap();
    assert_eq!(
        prediction.outputs, expected,
        "server must match local predict"
    );
    assert!(!prediction.degraded);
    assert_eq!(prediction.model, "mlp");
    assert_eq!(prediction.output_names, vec!["y".to_string()]);

    // Validation errors are non-retriable 400s.
    match client.predict(&[1.0]) {
        Err(ServeError::Rejected {
            status, retriable, ..
        }) => {
            assert_eq!(status, 400);
            assert!(!retriable);
        }
        other => panic!("width mismatch must reject, got {other:?}"),
    }
    // Non-finite features serialize as JSON null and are rejected, not
    // propagated into the network as NaN.
    match client.predict(&[f64::NAN, 1.0]) {
        Err(ServeError::Rejected { status, .. }) => assert_eq!(status, 400),
        other => panic!("non-finite input must reject, got {other:?}"),
    }
    match client.request("GET", "/nope", "") {
        Ok(resp) => assert_eq!(resp.status, 404),
        other => panic!("unexpected {other:?}"),
    }

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.handled >= 6);
    assert_eq!(stats.shed, 0);
}

#[test]
fn predict_batch_matches_single_predictions_bitwise() {
    let model = mlp(9);
    let inputs: Vec<Vec<f64>> = vec![
        vec![1.0, 1.0],
        vec![2.0, 3.0],
        vec![5.5, 2.5],
        vec![4.0, 6.0],
        vec![3.0, 3.0],
    ];
    let expected: Vec<Vec<f64>> = inputs.iter().map(|x| model.predict(x).unwrap()).collect();
    let bundle = FallbackModel::new(Some(model), Some(baseline()), vec![], vec![]).unwrap();
    let (addr, handle) = start(bundle, ServeConfig::default());
    let client = patient_client(&addr);

    // Repeated batches through the same worker exercise the reused
    // per-worker scratch; every row must stay bitwise equal to the
    // single-row path.
    for _ in 0..3 {
        let batch = client.predict_batch(&inputs).unwrap();
        assert_eq!(
            batch.outputs, expected,
            "batched predictions must match per-row predict exactly"
        );
        assert!(!batch.degraded);
        assert_eq!(batch.model, "mlp");
        assert_eq!(batch.output_names, vec!["y".to_string()]);
    }

    // Ragged and malformed batches are non-retriable 400s.
    match client.predict_batch(&[vec![1.0, 2.0], vec![1.0]]) {
        Err(ServeError::Rejected {
            status, retriable, ..
        }) => {
            assert_eq!(status, 400);
            assert!(!retriable);
        }
        other => panic!("ragged batch must reject, got {other:?}"),
    }
    match client.predict_batch(&[]) {
        Err(ServeError::Rejected { status, .. }) => assert_eq!(status, 400),
        other => panic!("empty batch must reject, got {other:?}"),
    }
    match client.predict_batch(&[vec![f64::NAN, 1.0]]) {
        Err(ServeError::Rejected { status, .. }) => assert_eq!(status, 400),
        other => panic!("non-finite batch must reject, got {other:?}"),
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn predict_batch_degrades_to_baseline_when_no_primary() {
    let base = baseline();
    let inputs: Vec<Vec<f64>> = vec![vec![3.0, 4.0], vec![1.0, 2.0]];
    let expected: Vec<Vec<f64>> = inputs.iter().map(|x| base.predict(x).unwrap()).collect();
    let bundle = FallbackModel::new(
        None,
        Some(base),
        vec!["a".into(), "b".into()],
        vec!["y".into()],
    )
    .unwrap();
    let (addr, handle) = start(bundle, ServeConfig::default());
    let client = patient_client(&addr);

    let batch = client.predict_batch(&inputs).unwrap();
    assert!(batch.degraded);
    assert_eq!(batch.model, "linear-baseline");
    assert_eq!(batch.outputs, expected);

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.degraded >= 1);
}

#[test]
fn degraded_only_serving_matches_baseline_exactly() {
    let base = baseline();
    let expected = base.predict(&[3.0, 4.0]).unwrap();
    let bundle = FallbackModel::new(
        None,
        Some(base),
        vec!["a".into(), "b".into()],
        vec!["y".into()],
    )
    .unwrap();
    let (addr, handle) = start(bundle, ServeConfig::default());
    let client = patient_client(&addr);

    let prediction = client.predict(&[3.0, 4.0]).unwrap();
    assert!(prediction.degraded);
    assert_eq!(prediction.model, "linear-baseline");
    assert_eq!(
        prediction.outputs, expected,
        "degraded responses must be byte-identical to the wlc-core baseline"
    );
    // A server with only a baseline still reports ready: it can answer.
    assert_eq!(
        client
            .readyz()
            .unwrap()
            .get("ready")
            .and_then(|r| r.as_bool()),
        Some(true)
    );

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.degraded >= 1);
}

#[test]
fn overload_soak_sheds_deterministically_and_recovers() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        slow_per_request: Duration::from_millis(15),
        default_deadline: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(full_bundle(2), config);

    // Sustained burst far beyond 1 worker x 2 queue slots.
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let (addr, ok, shed) = (addr.clone(), Arc::clone(&ok), Arc::clone(&shed));
            thread::spawn(move || {
                let client = quick_client(&addr);
                for _ in 0..6 {
                    match client.predict(&[2.0, 2.0]) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Rejected {
                            status, retriable, ..
                        }) => {
                            assert_eq!(status, 503, "only shedding may reject under load");
                            assert!(retriable, "shed responses must be marked retriable");
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::RetriesExhausted { .. }) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected failure under load: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (ok, shed) = (ok.load(Ordering::Relaxed), shed.load(Ordering::Relaxed));
    assert_eq!(ok + shed, 48, "every request must resolve decisively");
    assert!(ok > 0, "some requests must get through");
    assert!(
        shed > 0,
        "a 3-slot pipeline cannot absorb 8x6 concurrent requests"
    );

    // After the burst drains, readiness recovers and requests succeed.
    let client = patient_client(&addr);
    let recovered = (0..100).any(|_| {
        thread::sleep(Duration::from_millis(10));
        client
            .readyz()
            .ok()
            .and_then(|j| j.get("ready").and_then(|r| r.as_bool()))
            == Some(true)
    });
    assert!(recovered, "/readyz must flip back after the burst");
    assert!(client.predict(&[2.0, 2.0]).is_ok());

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.shed >= shed, "acceptor must account for every shed");
    assert!(stats.handled >= ok);
}

#[test]
fn deadlines_fire_for_slow_requests() {
    let config = ServeConfig {
        workers: 2,
        slow_per_request: Duration::from_millis(50),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(full_bundle(3), config);
    let client = quick_client(&addr);

    // 10ms deadline against 50ms service time: must time out, and the
    // timeout must be marked retriable (504).
    match client.predict_with_deadline(&[2.0, 2.0], Some(10)) {
        Err(ServeError::Rejected {
            status,
            retriable,
            message,
        }) => {
            assert_eq!(status, 504);
            assert!(retriable, "timeouts must be marked retriable");
            assert!(message.contains("deadline"), "got: {message}");
        }
        other => panic!("expected deadline miss, got {other:?}"),
    }
    // A generous deadline succeeds.
    assert!(client
        .predict_with_deadline(&[2.0, 2.0], Some(5000))
        .is_ok());

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.deadline_missed >= 1);
}

#[test]
fn breaker_opens_degrades_then_half_open_probe_recovers() {
    let base = baseline();
    let expected_degraded = base.predict(&[2.0, 3.0]).unwrap();
    let model = mlp(4);
    let expected_primary = model.predict(&[2.0, 3.0]).unwrap();
    let bundle = FallbackModel::new(Some(model), Some(base), vec![], vec![]).unwrap();
    let config = ServeConfig {
        force_fail: 3,
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(bundle, config);
    let client = patient_client(&addr);

    // The three injected failures each degrade to the baseline and
    // count against the breaker.
    for i in 0..3 {
        let p = client.predict(&[2.0, 3.0]).unwrap();
        assert!(p.degraded, "injected failure {i} must degrade");
        assert_eq!(p.model, "linear-baseline");
        assert_eq!(
            p.outputs, expected_degraded,
            "degraded output must match the wlc-core baseline"
        );
    }
    // Circuit is now open: the injection budget is spent, but requests
    // keep degrading without touching the primary.
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("breaker").and_then(|s| s.as_str()), Some("open"));
    let p = client.predict(&[2.0, 3.0]).unwrap();
    assert!(p.degraded, "open circuit must bypass the primary");

    // After the cooldown a half-open probe succeeds and closes the
    // circuit; primary serving resumes.
    thread::sleep(Duration::from_millis(150));
    let p = client.predict(&[2.0, 3.0]).unwrap();
    assert!(!p.degraded, "half-open probe should recover the primary");
    assert_eq!(p.outputs, expected_primary);
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("breaker").and_then(|s| s.as_str()),
        Some("closed")
    );

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(stats.degraded >= 4);
}

#[test]
fn hot_reload_swaps_atomically_under_concurrent_load() {
    let model_a = mlp(5);
    let model_b = mlp(6);
    let probe = [2.5, 3.5];
    let pred_a = model_a.predict(&probe).unwrap();
    let pred_b = model_b.predict(&probe).unwrap();
    assert_ne!(pred_a, pred_b, "test needs distinguishable models");

    let dir = std::env::temp_dir().join(format!("wlc-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_b = dir.join("model-b.txt");
    model_b.save(&path_b).unwrap();

    let bundle = FallbackModel::new(Some(model_a), Some(baseline()), vec![], vec![]).unwrap();
    let (addr, handle) = start(bundle, ServeConfig::default());
    let client = patient_client(&addr);

    // Hammer the server from background threads for the whole duration.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            let (addr, stop) = (addr.clone(), Arc::clone(&stop));
            thread::spawn(move || {
                let client = patient_client(&addr);
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let p = client.predict(&[2.5, 3.5]).unwrap();
                    assert!(!p.degraded, "reload must never interrupt serving");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Invalid reloads: every one rejected, generation pinned, serving
    // predictions still byte-identical to model A.
    let text = std::fs::read_to_string(&path_b).unwrap();
    let corrupt = dir.join("corrupt.txt");
    std::fs::write(&corrupt, text.replacen("wlc-model v1", "broken", 1)).unwrap();
    let truncated = dir.join("truncated.txt");
    std::fs::write(
        &truncated,
        text.lines().take(4).collect::<Vec<_>>().join("\n"),
    )
    .unwrap();
    let missing = dir.join("missing.txt");
    for bad in [&corrupt, &truncated, &missing] {
        match client.reload(bad.to_str().unwrap()) {
            Err(ServeError::Rejected {
                status, retriable, ..
            }) => {
                assert_eq!(status, 400);
                assert!(!retriable);
            }
            other => panic!("invalid reload must reject, got {other:?}"),
        }
    }
    assert_eq!(client.predict(&probe).unwrap().outputs, pred_a);
    assert_eq!(client.predict(&probe).unwrap().generation, 0);

    // A dimension-mismatched model is rejected by validation.
    let mut narrow = Dataset::new(vec!["a".into()], vec!["y".into()]).unwrap();
    for i in 0..8 {
        narrow
            .push(Sample::new(vec![i as f64], vec![i as f64 * 3.0]))
            .unwrap();
    }
    let wrong_dims = WorkloadModelBuilder::new()
        .no_hidden_layers()
        .hidden_layer(3)
        .max_epochs(50)
        .seed(9)
        .train(&narrow)
        .unwrap()
        .model;
    let path_wrong = dir.join("wrong-dims.txt");
    wrong_dims.save(&path_wrong).unwrap();
    match client.reload(path_wrong.to_str().unwrap()) {
        Err(ServeError::Rejected { status, .. }) => assert_eq!(status, 400),
        other => panic!("dim mismatch must reject, got {other:?}"),
    }
    assert_eq!(client.predict(&probe).unwrap().outputs, pred_a);

    // The valid reload swaps atomically: generation bumps and new
    // predictions come from model B.
    assert_eq!(client.reload(path_b.to_str().unwrap()).unwrap(), 1);
    let p = client.predict(&probe).unwrap();
    assert_eq!(p.generation, 1);
    assert_eq!(p.outputs, pred_b);

    stop.store(true, Ordering::Relaxed);
    let total: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        total > 0,
        "hammer threads must have exercised the swap window"
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_batch_error_paths_match_the_http_contract() {
    let (addr, handle) = start(full_bundle(8), ServeConfig::default());
    let client = quick_client(&addr);

    // Raw bodies so the test pins the wire contract, not the client's
    // serializer. Every malformed request to either prediction route is
    // a 400 per the README status table, marked non-retriable, with an
    // error message naming the problem.
    let bad: &[(&str, &str, &str)] = &[
        ("/predict_batch", r#"{"inputs":[]}"#, "empty batch"),
        (
            "/predict_batch",
            r#"{"inputs":[[1.0,2.0],[1.0]]}"#,
            "ragged rows",
        ),
        (
            "/predict_batch",
            r#"{"inputs":[[1.0,null]]}"#,
            "non-finite value",
        ),
        ("/predict_batch", r#"{"inputs":[5.0]}"#, "non-array row"),
        ("/predict_batch", r#"{"inputs":"x"}"#, "non-array inputs"),
        ("/predict_batch", r#"{}"#, "missing inputs"),
        ("/predict_batch", r#"{"#, "unparseable body"),
        ("/predict", r#"{"inputs":[1.0]}"#, "width mismatch"),
        ("/predict", r#"{"inputs":[1.0,null]}"#, "null feature"),
        ("/predict", r#"{"inputs":"x"}"#, "non-array inputs"),
        ("/predict", r#"{}"#, "missing inputs"),
        ("/predict", r#"{"#, "unparseable body"),
    ];
    for (route, body, what) in bad {
        let resp = client.request("POST", route, body).unwrap();
        assert_eq!(resp.status, 400, "{route}: {what} must answer 400");
        let json = Json::parse(resp.body_str().unwrap()).unwrap();
        assert_eq!(
            json.get("retriable").and_then(Json::as_bool),
            Some(false),
            "{route}: {what} is the caller's fault: retrying cannot help"
        );
        assert!(
            json.get("error")
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty()),
            "{route}: {what} must carry an error message"
        );
    }

    // The same endpoints still answer well-formed requests.
    for (route, body) in [
        ("/predict_batch", r#"{"inputs":[[2.0,3.0],[1.0,1.0]]}"#),
        ("/predict", r#"{"inputs":[2.0,3.0]}"#),
    ] {
        let resp = client.request("POST", route, body).unwrap();
        assert_eq!(resp.status, 200, "{route}");
    }

    client.shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert_eq!(stats.deadline_missed, 0);
}

/// Sends `x` to `route` — `/predict`, or `/predict_batch` as a one-row
/// batch — and returns whether the answer was degraded.
fn degraded_via(
    route: &str,
    client: &ServeClient,
    x: &[f64],
    deadline_ms: Option<u64>,
) -> Result<bool, ServeError> {
    match route {
        "/predict" => client
            .predict_with_deadline(x, deadline_ms)
            .map(|p| p.degraded),
        _ => client
            .predict_batch_with_deadline(&[x.to_vec()], deadline_ms)
            .map(|p| p.degraded),
    }
}

/// Behavioral pin of the breaker accounting sweep (the unit rule lives
/// in `wlc_serve::counts_against_breaker`): with a threshold of one, a
/// single miscounted failure would flip `/stats` to "open". Both
/// prediction routes run the same scenario, each on a fresh server.
#[test]
fn breaker_ignores_caller_errors_and_queued_deadline_misses() {
    for route in ["/predict", "/predict_batch"] {
        let probe = [2.0, 3.0];
        let config = ServeConfig {
            workers: 1,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            slow_per_request: Duration::from_millis(250),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let (addr, handle) = start(full_bundle(4), config);
        let client = quick_client(&addr);

        // Caller errors: 400s and a 404 never touch the breaker.
        assert!(matches!(
            degraded_via(route, &client, &[1.0], None),
            Err(ServeError::Rejected { status: 400, .. })
        ));
        assert!(matches!(
            degraded_via(route, &client, &[f64::NAN, 1.0], None),
            Err(ServeError::Rejected { status: 400, .. })
        ));
        assert_eq!(client.request("GET", "/nope", "").unwrap().status, 404);

        // Queued-phase deadline miss: a slow request occupies the single
        // worker, so a tight-deadline request expires while still queued.
        let bg = {
            let addr = addr.clone();
            thread::spawn(move || degraded_via(route, &quick_client(&addr), &probe, Some(5000)))
        };
        thread::sleep(Duration::from_millis(60)); // slow request is in service
        match degraded_via(route, &client, &probe, Some(20)) {
            Err(ServeError::Rejected {
                status,
                retriable,
                message,
            }) => {
                assert_eq!(status, 504);
                assert!(retriable);
                assert!(message.contains("while queued"), "{route}: got: {message}");
            }
            other => panic!("{route}: expected queued deadline miss, got {other:?}"),
        }
        assert!(bg.join().unwrap().is_ok());

        // None of the above counted: the breaker is still closed and the
        // primary still serves.
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("breaker").and_then(Json::as_str),
            Some("closed"),
            "{route}: caller errors and queued 504s must not trip the breaker"
        );
        assert!(!degraded_via(route, &client, &probe, None).unwrap());

        // A compute-phase deadline miss (the primary answered, but too
        // late) is a real serving failure and opens the breaker at once.
        match degraded_via(route, &client, &probe, Some(100)) {
            Err(ServeError::Rejected {
                status, message, ..
            }) => {
                assert_eq!(status, 504);
                assert!(
                    message.contains("during computation"),
                    "{route}: got: {message}"
                );
            }
            other => panic!("{route}: expected compute deadline miss, got {other:?}"),
        }
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("breaker").and_then(Json::as_str),
            Some("open"),
            "{route}: one compute-phase failure must open a threshold-1 breaker"
        );
        // Open breaker bypasses the primary: serving degrades to baseline.
        assert!(degraded_via(route, &client, &probe, None).unwrap());

        client.shutdown().unwrap();
        let stats = handle.join().unwrap();
        assert!(stats.deadline_missed >= 2);
        assert!(stats.degraded >= 1);
    }
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        slow_per_request: Duration::from_millis(60),
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(full_bundle(7), config);

    // Six slow requests: two in flight, four queued behind them.
    let inflight: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || quick_client(&addr).predict(&[2.0, 2.0]))
        })
        .collect();
    thread::sleep(Duration::from_millis(20)); // let them enqueue

    // The shutdown request queues behind them and must still drain
    // everything that was accepted.
    let started = Instant::now();
    quick_client(&addr).shutdown().unwrap();
    let stats = handle.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain must terminate promptly"
    );
    for t in inflight {
        let result = t.join().unwrap();
        assert!(
            result.is_ok(),
            "accepted request dropped during shutdown: {result:?}"
        );
    }
    assert!(stats.handled >= 7, "6 predicts + shutdown, got {stats:?}");

    // The listener is gone: new connections fail.
    assert!(quick_client(&addr).healthz().is_err());
}

#[test]
fn injected_read_fault_rejects_reload_as_retriable_503_and_a_retry_succeeds() {
    use wlc_fault::{FailPlan, FaultKind, Fs, SimFs};

    let model_a = mlp(5);
    let model_b = mlp(6);
    let probe = [2.5, 3.5];
    let pred_a = model_a.predict(&probe).unwrap();
    let pred_b = model_b.predict(&probe).unwrap();
    assert_ne!(pred_a, pred_b, "test needs distinguishable models");

    // The candidate lives on a simulated filesystem whose first read at
    // `serve.model.load` returns EIO; the server never touches disk.
    let sim = Arc::new(SimFs::with_plan(FailPlan::single(
        "serve.model.load",
        0,
        FaultKind::Eio,
    )));
    let dir = std::path::Path::new("models");
    sim.create_dir_all("test.setup", dir).unwrap();
    let path_b = dir.join("model-b.txt");
    sim.write("test.setup", &path_b, model_b.to_text().as_bytes())
        .unwrap();

    let bundle = FallbackModel::new(Some(model_a), Some(baseline()), vec![], vec![]).unwrap();
    let config = ServeConfig {
        fs: sim,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(bundle, config);
    let client = quick_client(&addr);

    // The injected fault is a transient storage failure, not a caller
    // mistake: 503, retriable, and serving stays on the last-good model.
    match client.reload_detailed(path_b.to_str().unwrap()) {
        Err(ServeError::Rejected {
            status,
            retriable,
            message,
            ..
        }) => {
            assert_eq!(status, 503);
            assert!(retriable);
            assert!(message.contains("injected eio"), "{message}");
        }
        other => panic!("expected retriable 503, got {other:?}"),
    }
    let p = client.predict(&probe).unwrap();
    assert_eq!(p.outputs, pred_a, "failed reload must not disturb serving");
    assert_eq!(p.generation, 0);

    // The failpoint fired once and is consumed: the retry goes through.
    assert_eq!(client.reload(path_b.to_str().unwrap()).unwrap(), 1);
    let p = client.predict(&probe).unwrap();
    assert_eq!(p.generation, 1);
    assert_eq!(p.outputs, pred_b);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// How the stand-in server below ends each exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fake {
    /// Answer and keep the connection for the next request.
    KeepAlive,
    /// Answer without `Connection: close`, then drop the connection.
    DropAfterResponse,
    /// Send half a response, then drop the connection.
    DropMidResponse,
}

/// A stand-in server built on `wlc_serve::http` that serves one
/// connection at a time, answering `{"status":"ok"}`, until `stop` is
/// set. The thread returns how many connections it accepted and how
/// many requests it read.
fn fake_server(mode: Fake) -> (String, Arc<AtomicBool>, thread::JoinHandle<(usize, usize)>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let (mut accepts, mut requests) = (0, 0);
            while !stop.load(Ordering::SeqCst) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                };
                stream.set_nonblocking(false).unwrap();
                accepts += 1;
                let mut conn = http::Connection::new(stream).unwrap();
                while conn.read_request(http::HEAD_DEADLINE).is_ok() {
                    requests += 1;
                    let body = r#"{"status":"ok"}"#;
                    if mode == Fake::DropMidResponse {
                        let head =
                            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                        conn.get_mut().write_all(head.as_bytes()).unwrap();
                        conn.get_mut().write_all(&body.as_bytes()[..4]).unwrap();
                        break;
                    }
                    http::write_response(conn.get_mut(), 200, body, 1, true).unwrap();
                    if mode == Fake::DropAfterResponse {
                        break;
                    }
                }
            }
            (accepts, requests)
        })
    };
    (addr, stop, handle)
}

#[test]
fn keep_alive_client_reuses_one_connection_for_sequential_calls() {
    let (addr, stop, fake) = fake_server(Fake::KeepAlive);
    let client = quick_client(&addr);
    for _ in 0..20 {
        client.healthz().unwrap();
    }
    drop(client);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(
        fake.join().unwrap(),
        (1, 20),
        "20 sequential calls must share one connection"
    );
}

#[test]
fn keep_alive_resends_only_requests_the_server_never_started_answering() {
    // Each response arrives without `Connection: close`, so the client
    // keeps the connection, but the server has already dropped it: the
    // next call meets a closed connection before any response byte and
    // goes again on a fresh one, spending none of its single attempt.
    let (addr, stop, fake) = fake_server(Fake::DropAfterResponse);
    let client = quick_client(&addr);
    for call in 0..20 {
        assert!(client.healthz().is_ok(), "call {call} must succeed");
    }
    drop(client);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(fake.join().unwrap(), (20, 20));

    // A connection dropped mid-response may have done the work: the
    // failure is the caller's to see, and nothing is sent again.
    let (addr, stop, fake) = fake_server(Fake::DropMidResponse);
    match quick_client(&addr).healthz() {
        Err(ServeError::Protocol(message)) => assert!(message.contains("mid-body"), "{message}"),
        other => panic!("expected a mid-body protocol error, got {other:?}"),
    }
    stop.store(true, Ordering::SeqCst);
    assert_eq!(
        fake.join().unwrap(),
        (1, 1),
        "no resend after response bytes"
    );
}

#[test]
fn keep_alive_close_request_gets_close_and_eof_after_the_body() {
    let (addr, handle) = start(full_bundle(1), ServeConfig::default());
    let mut conn = http::Connection::connect(&addr).unwrap();
    conn.get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: wlc\r\nConnection: close\r\n\r\n")
        .unwrap();
    let response = conn.read_response().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.headers.get("connection").map(String::as_str),
        Some("close")
    );
    assert!(matches!(
        conn.poll(Duration::from_secs(5)),
        Err(ServeError::ConnectionClosed)
    ));

    quick_client(&addr).shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn keep_alive_pipelined_requests_are_answered_in_order() {
    let (addr, handle) = start(full_bundle(1), ServeConfig::default());
    let mut conn = http::Connection::connect(&addr).unwrap();
    conn.get_mut()
        .write_all(
            b"POST /predict HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"inputs\":[2.0,3.0]}\
              GET /healthz HTTP/1.1\r\n\r\n",
        )
        .unwrap();
    let first = conn.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.keep_alive);
    let first = Json::parse(first.body_str().unwrap()).unwrap();
    assert_eq!(first.get("model").and_then(Json::as_str), Some("mlp"));
    let second = conn.read_response().unwrap();
    assert_eq!(second.status, 200);
    assert!(second.keep_alive);
    let second = Json::parse(second.body_str().unwrap()).unwrap();
    assert_eq!(second.get("status").and_then(Json::as_str), Some("ok"));

    quick_client(&addr).shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn keep_alive_reload_and_shutdown_do_not_wait_on_an_idle_connection() {
    let dir = std::env::temp_dir().join(format!("wlc-serve-idle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.txt");
    mlp(6).save(&path).unwrap();
    let config = ServeConfig {
        replicas: 2,
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(full_bundle(5), config);

    // One pooled client goes idle, holding a kept-alive connection.
    let idle = quick_client(&addr);
    assert!(idle.predict(&[2.0, 3.0]).is_ok());

    // Well inside the idle bound: neither the rolling drain nor the
    // shutdown drain waits for the idle connection to time out.
    let client = quick_client(&addr);
    let started = Instant::now();
    assert_eq!(client.reload(path.to_str().unwrap()).unwrap(), 1);
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "reload took {:?}",
        started.elapsed()
    );
    let started = Instant::now();
    client.shutdown().unwrap();
    handle.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "shutdown took {:?}",
        started.elapsed()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connection_is_closed_after_the_idle_bound() {
    let (addr, handle) = start(full_bundle(1), ServeConfig::default());
    let mut conn = http::Connection::connect(&addr).unwrap();
    http::write_request(conn.get_mut(), "GET", "/healthz", "").unwrap();
    assert!(conn.read_response().unwrap().keep_alive);
    let started = Instant::now();
    assert!(matches!(
        conn.poll(Duration::from_secs(5)),
        Err(ServeError::ConnectionClosed)
    ));
    let idle = started.elapsed();
    assert!(
        idle >= Duration::from_millis(900) && idle < Duration::from_secs(3),
        "closed after {idle:?}"
    );

    quick_client(&addr).shutdown().unwrap();
    handle.join().unwrap();
}
