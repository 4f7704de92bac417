//! A retrying client for the prediction server.
//!
//! The client honours the server's retriable/non-retriable distinction:
//! connect failures, `503` (shed) and `504` (deadline) are retried with
//! exponential backoff plus deterministic jitter (seeded
//! [`Xoshiro256`], so tests replay exactly); validation errors (`4xx`)
//! and protocol errors surface immediately.
//!
//! Requests reuse one kept-alive connection. The server closes an idle
//! connection only before it starts on the next request, so a request
//! whose reused connection turns out closed before any response byte
//! ([`ServeError::ConnectionClosed`]) is sent again at once on a fresh
//! connection, without spending an attempt or backing off.

use std::time::Duration;

use wlc_exec::TrackedMutex;
use wlc_math::rng::Xoshiro256;

use crate::error::ServeError;
use crate::http;
use crate::json::Json;

/// A successful prediction response. From `/predict`, `outputs` is one
/// row (the default `T`); from `/predict_batch` it is one row per input
/// configuration ([`BatchPrediction`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction<T = Vec<f64>> {
    /// Predicted performance indicators, in output order (one row per
    /// input configuration, in request order, for a batch).
    pub outputs: T,
    /// Names of the outputs (parallel to each row of `outputs`).
    pub output_names: Vec<String>,
    /// Whether the linear baseline answered instead of the MLP.
    pub degraded: bool,
    /// Which model answered (`"mlp"` or `"linear-baseline"`).
    pub model: String,
    /// Serving-model generation (bumped by each successful hot reload).
    pub generation: u64,
    /// Which replica answered.
    pub replica: u64,
}

/// A successful `/predict_batch` response.
pub type BatchPrediction = Prediction<Vec<Vec<f64>>>;

/// A completed rolling reload, as reported by `POST /reload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// The fleet's committed generation (minimum across replicas).
    pub generation: u64,
    /// Final per-replica generations, in replica order.
    pub generations: Vec<u64>,
    /// Generation vector after each single-replica swap: step `i`
    /// shows exactly `i + 1` replicas advanced.
    pub steps: Vec<Vec<u64>>,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Maximum attempts per request (first try + retries, minimum 1).
    pub max_attempts: usize,
    /// Base backoff; attempt `k` sleeps `base * 2^k` plus jitter.
    pub base_backoff: Duration,
    /// Cap applied to any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter source (deterministic for tests).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 5,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x5eed,
        }
    }
}

/// A client that reuses one kept-alive connection, with retry + backoff
/// (see module docs).
#[derive(Debug)]
pub struct ServeClient {
    addr: String,
    config: ClientConfig,
    rng: TrackedMutex<Xoshiro256>,
    /// The idle connection the next request reuses.
    idle: TrackedMutex<Option<http::Connection>>,
}

impl ServeClient {
    /// Creates a client for `addr` (e.g. `127.0.0.1:4321`).
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Self {
        let seed = config.jitter_seed;
        ServeClient {
            addr: addr.into(),
            config,
            rng: TrackedMutex::new("ServeClient.rng", Xoshiro256::seed_from(seed)),
            idle: TrackedMutex::new("ServeClient.idle", None),
        }
    }

    /// Backoff before retry attempt `attempt` (0-based): exponential
    /// with uniform jitter in `[0, base)`, capped at `max_backoff`.
    fn backoff(&self, attempt: usize) -> Duration {
        let base = self.config.base_backoff;
        let exp = base.saturating_mul(1u32 << attempt.min(16) as u32);
        let jitter = base.mul_f64(self.rng.lock().next_f64());
        (exp + jitter).min(self.config.max_backoff)
    }

    /// One attempt: on the idle connection when there is one, else, or
    /// when the server had already closed it, on a fresh connection.
    fn attempt(&self, method: &str, path: &str, body: &str) -> Result<http::Response, ServeError> {
        let idle = self.idle.lock().take();
        if let Some(conn) = idle {
            match self.exchange(conn, method, path, body) {
                Err(ServeError::ConnectionClosed) => {}
                outcome => return outcome,
            }
        }
        self.exchange(http::Connection::connect(&self.addr)?, method, path, body)
    }

    /// Sends one request on `conn` and reads its response, keeping the
    /// connection for the next request when the server keeps it open.
    fn exchange(
        &self,
        mut conn: http::Connection,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<http::Response, ServeError> {
        http::write_request(conn.get_mut(), method, path, body)?;
        let response = conn.read_response()?;
        if response.keep_alive {
            *self.idle.lock() = Some(conn);
        }
        Ok(response)
    }

    /// Sends one request, retrying retriable failures (connect/IO
    /// errors, 503 shed, 504 deadline) with backoff. Non-retriable
    /// responses — including 2xx and 4xx — return on the first attempt.
    /// When retries run out, the last retriable *response* is returned
    /// as-is (so callers see the final 503/504 verbatim);
    /// [`ServeError::RetriesExhausted`] is reserved for never having
    /// reached the server at all.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<http::Response, ServeError> {
        let attempts = self.config.max_attempts.max(1);
        let mut last_io = String::new();
        let mut last_response = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.attempt(method, path, body) {
                Ok(response) if response.status == 503 || response.status == 504 => {
                    last_response = Some(response);
                }
                Ok(response) => return Ok(response),
                // Connection-level failures are retriable: the server
                // may be draining, restarting, or mid-accept.
                Err(ServeError::Io(err)) => last_io = format!("io error: {err}"),
                Err(err @ ServeError::ConnectionClosed) => last_io = err.to_string(),
                Err(err) => return Err(err),
            }
        }
        match last_response {
            Some(response) => Ok(response),
            None => Err(ServeError::RetriesExhausted {
                attempts,
                last: last_io,
            }),
        }
    }

    fn request_json(&self, method: &str, path: &str, body: &str) -> Result<Json, ServeError> {
        let response = self.request(method, path, body)?;
        let text = response.body_str()?;
        let json = Json::parse(text)
            .map_err(|reason| ServeError::Protocol(format!("bad response body: {reason}")))?;
        if response.status == 200 {
            return Ok(json);
        }
        let message = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error")
            .to_string();
        let retriable = json
            .get("retriable")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        Err(ServeError::Rejected {
            status: response.status,
            message,
            retriable,
        })
    }

    /// POSTs `inputs` to the prediction route `path` and parses the
    /// answer, reading `outputs` with `rows`.
    fn post_prediction<T>(
        &self,
        path: &str,
        inputs: Json,
        deadline_ms: Option<u64>,
        rows: impl FnOnce(&Json) -> Option<T>,
    ) -> Result<Prediction<T>, ServeError> {
        let mut body = vec![("inputs", inputs)];
        if let Some(ms) = deadline_ms {
            body.push(("deadline_ms", Json::Num(ms as f64)));
        }
        let body =
            Json::Obj(body.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string();
        let json = self.request_json("POST", path, &body)?;
        let outputs = json
            .get("outputs")
            .and_then(rows)
            .ok_or_else(|| ServeError::Protocol("response missing `outputs`".into()))?;
        let output_names = json
            .get("output_names")
            .and_then(Json::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        Ok(Prediction {
            outputs,
            output_names,
            degraded: json
                .get("degraded")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            model: json
                .get("model")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            generation: json.get("generation").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            replica: json.get("replica").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        })
    }

    /// Requests a prediction for one configuration.
    pub fn predict(&self, inputs: &[f64]) -> Result<Prediction, ServeError> {
        self.predict_with_deadline(inputs, None)
    }

    /// Requests a prediction with an explicit deadline in milliseconds.
    pub fn predict_with_deadline(
        &self,
        inputs: &[f64],
        deadline_ms: Option<u64>,
    ) -> Result<Prediction, ServeError> {
        self.post_prediction(
            "/predict",
            Json::nums(inputs),
            deadline_ms,
            Json::as_f64_array,
        )
    }

    /// Requests predictions for many configurations in one round trip
    /// (`POST /predict_batch`): the server answers every row through its
    /// allocation-free batched forward pass.
    pub fn predict_batch(&self, inputs: &[Vec<f64>]) -> Result<BatchPrediction, ServeError> {
        self.predict_batch_with_deadline(inputs, None)
    }

    /// Batched prediction with an explicit deadline in milliseconds.
    pub fn predict_batch_with_deadline(
        &self,
        inputs: &[Vec<f64>],
        deadline_ms: Option<u64>,
    ) -> Result<BatchPrediction, ServeError> {
        let rows = Json::Arr(inputs.iter().map(|row| Json::nums(row)).collect());
        self.post_prediction("/predict_batch", rows, deadline_ms, |outputs| {
            outputs.as_arr()?.iter().map(Json::as_f64_array).collect()
        })
    }

    /// `GET /healthz` — liveness.
    pub fn healthz(&self) -> Result<Json, ServeError> {
        self.request_json("GET", "/healthz", "")
    }

    /// `GET /readyz` — readiness. `Ok` when ready; a 503 surfaces as
    /// [`ServeError::Rejected`] after retries.
    pub fn readyz(&self) -> Result<Json, ServeError> {
        self.request_json("GET", "/readyz", "")
    }

    /// `GET /stats` — lifetime counters and breaker state.
    pub fn stats(&self) -> Result<Json, ServeError> {
        self.request_json("GET", "/stats", "")
    }

    /// `POST /reload` — validated rolling hot swap of the model at
    /// `path` across every replica; returns the fleet's committed
    /// generation (the minimum across replicas).
    pub fn reload(&self, path: &str) -> Result<u64, ServeError> {
        Ok(self.reload_detailed(path)?.generation)
    }

    /// `POST /reload` with the full rolling-reload report: final
    /// per-replica generations and the per-swap step snapshots that
    /// prove the one-replica-at-a-time barrier.
    pub fn reload_detailed(&self, path: &str) -> Result<ReloadOutcome, ServeError> {
        let body = Json::obj([("path", Json::Str(path.into()))]).to_string();
        let json = self.request_json("POST", "/reload", &body)?;
        let nums = |v: &Json| -> Vec<u64> {
            v.as_arr()
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|n| n.as_f64().map(|f| f as u64))
                        .collect()
                })
                .unwrap_or_default()
        };
        Ok(ReloadOutcome {
            generation: json.get("generation").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            generations: json.get("generations").map(nums).unwrap_or_default(),
            steps: json
                .get("steps")
                .and_then(Json::as_arr)
                .map(|steps| steps.iter().map(nums).collect())
                .unwrap_or_default(),
        })
    }

    /// `POST /replica` — take replica `id` out of rotation (admin/test
    /// hook; queued work still drains, the router routes around it).
    pub fn kill_replica(&self, id: usize) -> Result<(), ServeError> {
        self.replica_action(id, "kill")
    }

    /// `POST /replica` — bring a killed replica back into rotation.
    pub fn revive_replica(&self, id: usize) -> Result<(), ServeError> {
        self.replica_action(id, "revive")
    }

    fn replica_action(&self, id: usize, action: &str) -> Result<(), ServeError> {
        let body = Json::obj([
            ("replica", Json::Num(id as f64)),
            ("action", Json::Str(action.into())),
        ])
        .to_string();
        self.request_json("POST", "/replica", &body).map(|_| ())
    }

    /// `POST /replica` with `action: "force_fail"` — chaos hook: make
    /// the next `count` primary predictions fail server-side (`count`
    /// replaces the counter, so 0 disarms leftovers).
    pub fn force_fail(&self, count: u64) -> Result<(), ServeError> {
        let body = Json::obj([
            ("replica", Json::Num(0.0)),
            ("action", Json::Str("force_fail".into())),
            ("count", Json::Num(count as f64)),
        ])
        .to_string();
        self.request_json("POST", "/replica", &body).map(|_| ())
    }

    /// `POST /supervisor` — report a continuous-learning lifecycle
    /// transition (`promotion`, `rollback`, `quarantine`,
    /// `probation_start`, `probation_end`) for the `/stats` counters.
    pub fn notify_supervisor(&self, event: &str) -> Result<(), ServeError> {
        let body = Json::obj([("event", Json::Str(event.into()))]).to_string();
        self.request_json("POST", "/supervisor", &body).map(|_| ())
    }

    /// `POST /shutdown` — request a graceful drain-and-exit.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.request_json("POST", "/shutdown", "{}").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let client = ServeClient::new(
            "127.0.0.1:1",
            ClientConfig {
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
                ..ClientConfig::default()
            },
        );
        let b0 = client.backoff(0);
        let b3 = client.backoff(3);
        assert!(b0 >= Duration::from_millis(10) && b0 < Duration::from_millis(20));
        assert!(b3 >= Duration::from_millis(80) && b3 < Duration::from_millis(90));
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(client.backoff(40), Duration::from_millis(500));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = |seed| {
            ServeClient::new(
                "127.0.0.1:1",
                ClientConfig {
                    jitter_seed: seed,
                    ..ClientConfig::default()
                },
            )
        };
        let (a, b, c) = (mk(7), mk(7), mk(8));
        let seq_a: Vec<Duration> = (0..4).map(|i| a.backoff(i)).collect();
        let seq_b: Vec<Duration> = (0..4).map(|i| b.backoff(i)).collect();
        let seq_c: Vec<Duration> = (0..4).map(|i| c.backoff(i)).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn connect_failure_to_unused_port_exhausts_retries() {
        // Port 1 on loopback is essentially never listening; connects
        // fail fast with ECONNREFUSED, which is retriable.
        let client = ServeClient::new(
            "127.0.0.1:1",
            ClientConfig {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        );
        match client.healthz() {
            Err(ServeError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }
}
