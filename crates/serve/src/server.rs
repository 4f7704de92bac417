//! The fault-tolerant, multi-replica prediction server.
//!
//! A [`Server`] binds a loopback TCP port and serves predictions from a
//! fleet of [`Replica`]s — each owning its own hot-swappable
//! [`crate::ModelSlot`], circuit breaker, bounded queue and worker
//! threads — behind a least-loaded [`Router`]. The design goals are the
//! classic overload-robustness triad, now per failure domain:
//!
//! - **Load shedding** — accepted connections are dispatched to the
//!   least-loaded routable replica's bounded queue
//!   ([`wlc_exec::BoundedQueue`]); when every queue is full the
//!   acceptor answers `503` (retriable) immediately instead of queueing
//!   unboundedly.
//! - **Persistent connections** — after answering an HTTP/1.1 request
//!   that did not ask to close, a worker hands the connection back
//!   through [`Router::dispatch`], so routing, load accounting, drains
//!   and shedding are still decided per request. A worker that pops an
//!   idle connection waits for its next request in 1 ms slices and
//!   gives it up as soon as other work is queued, the replica leaves
//!   rotation or the server shuts down; one idle for 1 s is closed.
//!   Framing errors, sheds, `/shutdown` and every response while
//!   shutting down carry `Connection: close`.
//! - **Deadlines** — every request carries a deadline (default from
//!   [`ServeConfig::default_deadline`], overridable per request); work
//!   that misses it is answered `504` (retriable) rather than returned
//!   arbitrarily late.
//! - **Graceful degradation** — each replica's [`CircuitBreaker`]
//!   guards its MLP; repeated failures route that replica's requests to
//!   the linear baseline, tagged `"degraded": true`, without touching
//!   the other replicas.
//!
//! Model updates are **rolling**: `POST /reload` drains and swaps one
//! replica at a time ([`Router::rolling_reload`]) so the fleet never
//! has more than one replica out of rotation and zero accepted
//! requests fail during an update. Shutdown (`POST /shutdown`) stops
//! accepting, drains every replica and returns cleanly.
//!
//! # Endpoints
//!
//! | Route            | Purpose                                          |
//! |------------------|--------------------------------------------------|
//! | `POST /predict`  | `{"inputs":[...], "deadline_ms":n?}` → prediction: a one-row batch through the same pipeline, scratch and engine as `/predict_batch` |
//! | `POST /predict_batch` | `{"inputs":[[...],...], "deadline_ms":n?}` → one prediction per row, computed through the worker's reusable [`PredictScratch`] and [`BandEngine`] (allocation-free model pass) |
//! | `GET /healthz`   | liveness (200 while the process serves)          |
//! | `GET /readyz`    | readiness: per-replica health, ready while ≥ 1 replica can answer |
//! | `GET /stats`     | fleet counters plus a per-replica breakdown      |
//! | `POST /reload`   | `{"path":"model.txt"}` → validated rolling swap   |
//! | `POST /replica`  | `{"replica":n,"action":"kill"\|"revive"\|"force_fail"}` admin/test hook |
//! | `POST /supervisor` | `{"event":"promotion"\|"rollback"\|...}` learning-lifecycle counters for `/stats` |
//! | `POST /shutdown` | graceful drain and exit                          |
//!
//! The two prediction routes read and write their bodies without a
//! [`Json`] tree (`json::scan_request`, `json::write_answer`): the
//! rows go straight into the model's input matrix, and the 200 body
//! straight into one `String`, byte for byte what the tree prints. A
//! body the scanner does not expect is parsed into a tree instead, so
//! every 400 text still comes from one place and a queued 504 still
//! wins over a 400. The other routes use [`Json`].

use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wlc_exec::ServicePool;
use wlc_fault::FsHandle;
use wlc_math::rng::Xoshiro256;
use wlc_math::Matrix;
use wlc_model::fallback::{FallbackModel, Served};
use wlc_model::{ModelError, PredictScratch};
use wlc_nn::BandEngine;

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::error::ServeError;
use crate::http;
use crate::json::{self, Answer, Json, Shape};
use crate::replica::{Replica, ReplicaHealth};
use crate::router::{ReloadError, Router};

/// Server tuning knobs. [`Default`] gives sensible loopback settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Serving replicas, each with its own model slot, breaker, queue
    /// and worker threads (minimum 1).
    pub replicas: usize,
    /// Worker threads handling requests *per replica* (minimum 1).
    pub workers: usize,
    /// Per-replica bounded queue capacity; when every routable
    /// replica's queue is full, connections are shed with 503.
    pub queue_capacity: usize,
    /// A replica reports not-ready once its queue depth reaches this
    /// watermark (0 = use half the queue capacity).
    pub ready_watermark: usize,
    /// Default per-request deadline when the request does not carry
    /// `deadline_ms`.
    pub default_deadline: Duration,
    /// Consecutive primary failures that open a replica's breaker.
    pub breaker_threshold: u32,
    /// Cooldown before an open breaker half-opens to probe the primary.
    pub breaker_cooldown: Duration,
    /// How long a rolling reload waits for each replica's in-flight
    /// work to drain before aborting with a retriable 503.
    pub reload_drain_timeout: Duration,
    /// Artificial per-request service time (test/benchmark hook for
    /// driving the server into overload deterministically).
    pub slow_per_request: Duration,
    /// Fail this many primary predictions before behaving normally
    /// (test hook for exercising the breaker, mirroring the trainer's
    /// fault-injection flags).
    pub force_fail: u64,
    /// Seed for the jittered `Retry-After` on shed 503s; a fixed seed
    /// makes the jitter sequence reproducible.
    pub shed_jitter_seed: u64,
    /// Worker threads for the batched forward pass inside each
    /// prediction request (a per-worker [`wlc_nn::BandEngine`]
    /// team; minimum 1). Predictions are bitwise identical for every
    /// setting — the band fan-out never changes reduction order.
    pub band_jobs: usize,
    /// Emit one structured log line per request to stderr, in one
    /// write; a line that cannot be written is dropped.
    pub log: bool,
    /// Filesystem model reloads read through (failpoint site
    /// `serve.model.load`). A [`wlc_fault::SimFs`] here lets tests
    /// inject read faults and serve supervisor-written artifacts.
    pub fs: FsHandle,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 1,
            workers: 4,
            queue_capacity: 64,
            ready_watermark: 0,
            default_deadline: Duration::from_secs(2),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(5),
            reload_drain_timeout: Duration::from_secs(5),
            slow_per_request: Duration::ZERO,
            force_fail: 0,
            shed_jitter_seed: 0x5eed,
            band_jobs: 1,
            log: false,
            fs: wlc_fault::real_fs(),
        }
    }
}

/// Counters accumulated over a server's lifetime, returned by
/// [`Server::run`] and exposed at `GET /stats` (summed over replicas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered (any status) by worker threads.
    pub handled: u64,
    /// Connections shed by the acceptor with 503 (no replica could
    /// take the job).
    pub shed: u64,
    /// Predictions served by the linear baseline (degraded mode).
    pub degraded: u64,
    /// Requests rejected with 504 for missing their deadline.
    pub deadline_missed: u64,
}

/// The phase of request handling in which a failure surfaced, for
/// [`counts_against_breaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePhase {
    /// The acceptor shed the connection (503) before any replica saw
    /// it.
    RouterShed,
    /// The request itself was invalid (4xx): malformed body, width
    /// mismatch, non-finite features.
    CallerError,
    /// The deadline expired while the request was still queued — the
    /// model was never invoked.
    QueuedDeadline,
    /// The primary model was actually invoked: compute errors,
    /// non-finite outputs, and answers that arrived past the deadline.
    Compute,
}

/// The breaker-accounting rule, pinned: only compute-phase failures
/// with a 5xx status count against a replica's circuit breaker.
///
/// Router-level sheds and caller errors say nothing about the model's
/// health, and a deadline that expired while the request sat in the
/// queue blames the queue, not the model — none of those may open the
/// breaker. A primary answer that arrives past its deadline (a
/// compute-phase 504) does count: a model too slow to be useful is as
/// failed as one that errors.
pub fn counts_against_breaker(status: u16, phase: FailurePhase) -> bool {
    matches!(phase, FailurePhase::Compute) && status >= 500
}

/// How long a kept-alive connection may wait for its next request
/// before the server closes it.
const IDLE_BOUND: Duration = Duration::from_secs(1);
/// How long a worker waits on an idle connection before it looks at its
/// queue, its replica and shutdown again (a socket read timeout, which
/// the kernel may round up to its timer tick).
const IDLE_SLICE: Duration = Duration::from_millis(1);

/// A connection waiting in a replica queue.
struct Conn {
    stream: http::Connection,
    /// When the connection entered the queue: its accept, or its
    /// re-dispatch after a response.
    queued_at: Instant,
    /// When its last response was written; `None` before the first.
    idle_since: Option<Instant>,
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    router: Router<Conn>,
    shutting_down: AtomicBool,
    force_fail: AtomicU64,
    shed: AtomicU64,
    // Continuous-learning lifecycle counters, reported by the
    // supervisor via POST /supervisor and exposed at GET /stats.
    promotions: AtomicU64,
    rollbacks: AtomicU64,
    quarantined: AtomicU64,
    probation: AtomicBool,
}

impl Shared {
    fn watermark(&self) -> usize {
        match self.config.ready_watermark {
            0 => (self.config.queue_capacity / 2).max(1),
            w => w.min(self.config.queue_capacity),
        }
    }

    fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            shed: self.shed.load(Ordering::Relaxed),
            ..ServeStats::default()
        };
        for replica in self.router.replicas() {
            let (handled, degraded, deadline_missed) = replica.counters();
            stats.handled += handled;
            stats.degraded += degraded;
            stats.deadline_missed += deadline_missed;
        }
        stats
    }

    /// The fleet's committed generation: the minimum across replicas.
    fn fleet_generation(&self) -> u64 {
        self.router.generations().into_iter().min().unwrap_or(0)
    }

    /// Consumes one forced-failure token, if any remain.
    fn take_forced_failure(&self) -> bool {
        self.force_fail
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    #[allow(clippy::too_many_arguments)]
    fn log_request(
        &self,
        replica: Option<usize>,
        method: &str,
        path: &str,
        status: u16,
        started: Instant,
        degraded: bool,
        shed: bool,
    ) {
        if !self.config.log {
            return;
        }
        let line = LogLine {
            replica,
            method,
            path,
            status,
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            queue_depth: self.router.replicas().iter().map(|r| r.queue().len()).sum(),
            degraded,
            shed,
        };
        // A line that cannot be written (stderr closed or full) is
        // dropped: the log must never fail a request or kill a worker.
        let _ = line.write_to(&mut io::stderr().lock());
    }
}

/// One request-log line: `wlc-serve method=… path=… status=… replica=…
/// latency_ms=… queue_depth=… degraded=… shed=…`. A shed 503 never
/// reached a replica (`replica=-`), and a request whose head did not
/// parse has no method or path (`method=- path=-`).
struct LogLine<'a> {
    replica: Option<usize>,
    method: &'a str,
    path: &'a str,
    status: u16,
    latency_ms: f64,
    queue_depth: usize,
    degraded: bool,
    shed: bool,
}

impl LogLine<'_> {
    /// Formats the whole line, newline included, into one `String` and
    /// hands it to `out` in one `write_all`. Stderr is unbuffered, so
    /// formatting straight into it costs one `write(2)` per piece.
    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let LogLine {
            replica,
            method,
            path,
            status,
            latency_ms,
            queue_depth,
            degraded,
            shed,
        } = self;
        let replica: &dyn fmt::Display = match replica {
            Some(id) => id,
            None => &"-",
        };
        let line = format!(
            "wlc-serve method={method} path={path} status={status} replica={replica} \
             latency_ms={latency_ms:.3} queue_depth={queue_depth} degraded={degraded} \
             shed={shed}\n",
        );
        out.write_all(line.as_bytes())
    }
}

/// Jittered `Retry-After` seconds for a shed 503, uniform over
/// `{1, 2, 3}`. Without jitter every client shed in the same overload
/// burst would back off identically and retry in lockstep, re-creating
/// the burst; a seeded draw per shed spreads them out while staying
/// reproducible under a fixed [`ServeConfig::shed_jitter_seed`].
fn shed_retry_after(rng: &mut Xoshiro256) -> u64 {
    1 + (rng.next_f64() * 3.0) as u64
}

fn error_body(message: &str, retriable: bool) -> String {
    Json::obj([
        ("error", Json::Str(message.to_string())),
        ("retriable", Json::Bool(retriable)),
    ])
    .to_string()
}

fn breaker_state_name(state: BreakerState) -> &'static str {
    match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

/// The fleet's worst breaker state: any open replica reports `open`,
/// else any half-open reports `half-open`, else `closed`.
fn fleet_breaker_name(health: &[ReplicaHealth]) -> &'static str {
    if health.iter().any(|h| h.breaker == BreakerState::Open) {
        "open"
    } else if health.iter().any(|h| h.breaker == BreakerState::HalfOpen) {
        "half-open"
    } else {
        "closed"
    }
}

fn replica_health_json(h: &ReplicaHealth) -> Json {
    Json::obj([
        ("id", Json::Num(h.id as f64)),
        ("alive", Json::Bool(h.alive)),
        ("draining", Json::Bool(h.draining)),
        ("ready", Json::Bool(h.ready)),
        ("queue_depth", Json::Num(h.queue_depth as f64)),
        ("in_flight", Json::Num(h.in_flight as f64)),
        ("generation", Json::Num(h.generation as f64)),
        ("breaker", Json::Str(breaker_state_name(h.breaker).into())),
        ("handled", Json::Num(h.handled as f64)),
        ("degraded", Json::Num(h.degraded as f64)),
        ("deadline_missed", Json::Num(h.deadline_missed as f64)),
    ])
}

/// A bound, not-yet-running prediction server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// prepares the serving state: one [`Replica`] per
    /// [`ServeConfig::replicas`], each with its own copy of the bundle.
    /// Call [`Server::run`] to start.
    pub fn bind(
        addr: &str,
        bundle: FallbackModel,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidParameter {
                name: "queue_capacity",
                reason: "must be at least 1",
            });
        }
        if config.replicas == 0 {
            return Err(ServeError::InvalidParameter {
                name: "replicas",
                reason: "must be at least 1",
            });
        }
        let listener = TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_string(),
            source,
        })?;
        let local = listener.local_addr()?;
        let replicas: Vec<Arc<Replica<Conn>>> = (0..config.replicas)
            .map(|id| {
                Arc::new(Replica::new(
                    id,
                    bundle.clone(),
                    config.breaker_threshold,
                    config.breaker_cooldown,
                    config.queue_capacity,
                ))
            })
            .collect();
        let force_fail = AtomicU64::new(config.force_fail);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                addr: local,
                router: Router::new(replicas),
                shutting_down: AtomicBool::new(false),
                force_fail,
                shed: AtomicU64::new(0),
                promotions: AtomicU64::new(0),
                rollbacks: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
                probation: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop until a graceful shutdown is requested,
    /// then drains every replica's in-flight and queued requests and
    /// returns the lifetime counters.
    pub fn run(self) -> Result<ServeStats, ServeError> {
        let Server { listener, shared } = self;
        let workers = shared.config.workers.max(1);
        // One worker pool per replica, each draining that replica's own
        // queue. Each worker owns its scratch and band engine for its
        // whole lifetime, so the batched model pass reuses warm buffers
        // (and a persistent band team) across requests instead of
        // allocating per call.
        let band_jobs = shared.config.band_jobs.max(1);
        let pools: Vec<ServicePool> = shared
            .router
            .replicas()
            .iter()
            .map(|replica| {
                let shared = Arc::clone(&shared);
                let replica = Arc::clone(replica);
                ServicePool::start_with_state(
                    workers,
                    replica.queue(),
                    move |_worker| WorkerState::new(band_jobs),
                    move |_worker, state, conn| {
                        let fresh = || WorkerState::new(band_jobs);
                        run_job(state, fresh, &replica, |state| {
                            if let Some(conn) = handle_connection(&shared, &replica, state, conn) {
                                // Kept open: back through the router
                                // for its next request. If no replica
                                // can take it, it is closed, and the
                                // client resends on a fresh connection
                                // the acceptor decides.
                                let _ = shared.router.dispatch(Conn {
                                    queued_at: Instant::now(),
                                    ..conn
                                });
                            }
                        });
                    },
                )
            })
            .collect();

        // The acceptor is single-threaded, so the shed-jitter RNG needs
        // no lock; a fixed seed reproduces the whole jitter sequence.
        let mut shed_rng = Xoshiro256::seed_from(shared.config.shed_jitter_seed);
        for incoming in listener.incoming() {
            if shared.shutting_down.load(Ordering::SeqCst) {
                // `incoming` may be the self-connection that unblocked
                // the acceptor; either way, stop accepting.
                break;
            }
            let Ok(stream) = incoming
                .map_err(ServeError::from)
                .and_then(http::Connection::new)
            else {
                continue;
            };
            let conn = Conn {
                stream,
                queued_at: Instant::now(),
                idle_since: None,
            };
            if let Err(routed) = shared.router.dispatch(conn) {
                // Router-level shed: never touches any replica's
                // breaker (counts_against_breaker is false for
                // FailurePhase::RouterShed).
                let reason = routed.reason();
                let mut conn = routed.into_inner();
                shared.shed.fetch_add(1, Ordering::Relaxed);
                let body = error_body(reason, true);
                // Jittered Retry-After: clients shed in the same burst
                // get different hints and don't stampede back together.
                let retry_after = shed_retry_after(&mut shed_rng);
                let _ = http::write_response(conn.stream.get_mut(), 503, &body, retry_after, false);
                shared.log_request(None, "-", "-", 503, conn.queued_at, false, true);
            }
        }

        // Drain: no new work is queued past this point; every replica's
        // workers finish everything already accepted, then exit.
        for replica in shared.router.replicas() {
            replica.close();
        }
        for pool in pools {
            pool.join();
        }
        Ok(shared.stats())
    }
}

/// Per-worker serving state: warm prediction buffers plus a persistent
/// band-parallel forward engine, both reused across every request the
/// worker handles.
struct WorkerState {
    scratch: PredictScratch,
    engine: BandEngine,
}

impl WorkerState {
    fn new(band_jobs: usize) -> Self {
        WorkerState {
            scratch: PredictScratch::new(),
            engine: BandEngine::new(band_jobs),
        }
    }
}

/// One worker's turn with one dequeued job: `job` serves it, then the
/// replica's in-flight count (the rolling-reload drain condition) drops,
/// on every path. A panic in `job` stops at this boundary: the
/// connection it held closes as the panic unwinds, and the worker's
/// state, which the panic may have left half-updated, is rebuilt with
/// `fresh`. The worker then goes on to its next job, so a replica
/// cannot lose its workers, or its queue its readers, to panics.
fn run_job<S, T>(
    state: &mut S,
    fresh: impl FnOnce() -> S,
    replica: &Replica<T>,
    job: impl FnOnce(&mut S),
) {
    if catch_unwind(AssertUnwindSafe(|| job(state))).is_err() {
        *state = fresh();
    }
    replica.finish_request();
}

/// What a worker does with a returning connection.
enum Wait {
    /// Serve the request whose first bytes are buffered; its deadline
    /// runs from the given instant.
    Request(Instant),
    /// Hand the still-idle connection back: other work is queued.
    Requeue,
    /// Close it.
    Close,
}

/// Waits on a returning connection for its next request, one
/// [`IDLE_SLICE`] at a time, without holding it while other work waits.
/// It is closed when the client goes away, the server shuts down, the
/// replica leaves rotation, or it stays idle past [`IDLE_BOUND`].
fn await_request(
    shared: &Shared,
    replica: &Replica<Conn>,
    conn: &mut Conn,
    idle_since: Instant,
) -> Wait {
    // A request that arrived while the connection sat in the queue is
    // timed from its re-dispatch; one a worker waited for, from its
    // arrival. A connection popped at once has had no time to queue.
    if conn.queued_at.elapsed() >= IDLE_SLICE {
        match conn.stream.poll(Duration::ZERO) {
            Ok(true) => return Wait::Request(conn.queued_at),
            Ok(false) => {}
            Err(_) => return Wait::Close,
        }
    }
    loop {
        match conn.stream.poll(IDLE_SLICE) {
            Ok(true) => return Wait::Request(Instant::now()),
            Ok(false) => {}
            Err(_) => return Wait::Close,
        }
        if shared.shutting_down.load(Ordering::SeqCst)
            || !replica.routable()
            || idle_since.elapsed() >= IDLE_BOUND
        {
            return Wait::Close;
        }
        if !replica.queue().is_empty() {
            return Wait::Requeue;
        }
    }
}

/// Serves the next request on `conn`. Returns the connection when it
/// stays open.
fn handle_connection(
    shared: &Shared,
    replica: &Replica<Conn>,
    state: &mut WorkerState,
    mut conn: Conn,
) -> Option<Conn> {
    let started = match conn.idle_since {
        None => conn.queued_at,
        Some(idle_since) => match await_request(shared, replica, &mut conn, idle_since) {
            Wait::Request(started) => started,
            Wait::Requeue => return Some(conn),
            Wait::Close => return None,
        },
    };
    let request = match conn.stream.read_request(http::HEAD_DEADLINE) {
        Ok(request) => request,
        // The client closed the connection without starting a request.
        Err(ServeError::ConnectionClosed) => return None,
        Err(err) => {
            // Framing failures get a precise status: oversize bodies
            // 413, a head that outlasted its deadline 408, anything
            // else malformed 400.
            let status = match &err {
                ServeError::BodyTooLarge { .. } => 413,
                ServeError::HeaderTimeout { .. } => 408,
                _ => 400,
            };
            let body = error_body(&err.to_string(), false);
            let _ = http::write_response(conn.stream.get_mut(), status, &body, 1, false);
            replica.count_handled();
            shared.log_request(Some(replica.id()), "-", "-", status, started, false, false);
            return None;
        }
    };
    let (status, body, degraded) = route(shared, replica, state, &request, started);
    let keep_alive = request.keep_alive && !shared.shutting_down.load(Ordering::SeqCst);
    let written = http::write_response(conn.stream.get_mut(), status, &body, 1, keep_alive);
    replica.count_handled();
    shared.log_request(
        Some(replica.id()),
        &request.method,
        &request.path,
        status,
        started,
        degraded,
        false,
    );
    (keep_alive && written.is_ok()).then(|| Conn {
        idle_since: Some(Instant::now()),
        ..conn
    })
}

fn route(
    shared: &Shared,
    replica: &Replica<Conn>,
    state: &mut WorkerState,
    request: &http::Request,
    started: Instant,
) -> (u16, String, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/predict") => {
            handle_predict(shared, replica, state, request, started, Shape::Single)
        }
        ("POST", "/predict_batch") => {
            handle_predict(shared, replica, state, request, started, Shape::Batch)
        }
        ("GET", "/healthz") => (
            200,
            Json::obj([("status", Json::Str("ok".into()))]).to_string(),
            false,
        ),
        ("GET", "/readyz") => handle_readyz(shared),
        ("GET", "/stats") => handle_stats(shared),
        ("POST", "/reload") => handle_reload(shared, replica, request),
        ("POST", "/replica") => handle_replica(shared, request),
        ("POST", "/supervisor") => handle_supervisor(shared, request),
        ("POST", "/shutdown") => handle_shutdown(shared),
        ("POST" | "GET", _) => (
            404,
            error_body(&format!("no such route: {}", request.path), false),
            false,
        ),
        (method, _) => (
            405,
            error_body(&format!("method {method} not allowed"), false),
            false,
        ),
    }
}

fn handle_readyz(shared: &Shared) -> (u16, String, bool) {
    let watermark = shared.watermark();
    let health = shared.router.health(watermark, Instant::now());
    let shutting_down = shared.shutting_down.load(Ordering::SeqCst);
    let ready_count = health.iter().filter(|h| h.ready).count();
    let queue_depth: usize = health.iter().map(|h| h.queue_depth).sum();
    // Every replica serves a copy of the same bundle, so the first
    // replica is representative for the loaded-model flags.
    let (primary_loaded, baseline_loaded) = match shared.router.replica(0) {
        Some(replica) => {
            let snapshot = replica.slot().snapshot();
            (snapshot.has_primary(), snapshot.has_baseline())
        }
        None => (false, false),
    };
    let model_loaded = primary_loaded || baseline_loaded;
    // The fleet is ready while at least one replica can answer.
    let ready = ready_count > 0 && !shutting_down;
    let reason = if !model_loaded {
        "no model loaded"
    } else if shutting_down {
        "shutting down"
    } else if ready_count == 0 {
        if health.iter().all(|h| h.alive && !h.draining) {
            "queue above watermark"
        } else {
            "no replica ready"
        }
    } else {
        ""
    };
    let body = Json::obj([
        ("ready", Json::Bool(ready)),
        ("queue_depth", Json::Num(queue_depth as f64)),
        ("watermark", Json::Num(watermark as f64)),
        ("primary_loaded", Json::Bool(primary_loaded)),
        ("baseline_loaded", Json::Bool(baseline_loaded)),
        ("replicas_total", Json::Num(health.len() as f64)),
        ("replicas_ready", Json::Num(ready_count as f64)),
        (
            "replicas",
            Json::Arr(health.iter().map(replica_health_json).collect()),
        ),
        ("reason", Json::Str(reason.into())),
    ])
    .to_string();
    (if ready { 200 } else { 503 }, body, false)
}

fn handle_stats(shared: &Shared) -> (u16, String, bool) {
    let stats = shared.stats();
    let health = shared.router.health(shared.watermark(), Instant::now());
    let queue_depth: usize = health.iter().map(|h| h.queue_depth).sum();
    let body = Json::obj([
        ("handled", Json::Num(stats.handled as f64)),
        ("shed", Json::Num(stats.shed as f64)),
        ("degraded", Json::Num(stats.degraded as f64)),
        ("deadline_missed", Json::Num(stats.deadline_missed as f64)),
        ("generation", Json::Num(shared.fleet_generation() as f64)),
        ("breaker", Json::Str(fleet_breaker_name(&health).into())),
        ("queue_depth", Json::Num(queue_depth as f64)),
        (
            "queue_capacity",
            Json::Num(shared.config.queue_capacity as f64),
        ),
        ("replicas_total", Json::Num(health.len() as f64)),
        (
            "min_generation",
            Json::Num(shared.fleet_generation() as f64),
        ),
        (
            "promotions",
            Json::Num(shared.promotions.load(Ordering::SeqCst) as f64),
        ),
        (
            "rollbacks",
            Json::Num(shared.rollbacks.load(Ordering::SeqCst) as f64),
        ),
        (
            "quarantined",
            Json::Num(shared.quarantined.load(Ordering::SeqCst) as f64),
        ),
        (
            "probation",
            Json::Str(
                if shared.probation.load(Ordering::SeqCst) {
                    "active"
                } else {
                    "idle"
                }
                .into(),
            ),
        ),
        (
            "replicas",
            Json::Arr(health.iter().map(replica_health_json).collect()),
        ),
    ])
    .to_string();
    (200, body, false)
}

/// `POST /supervisor` — the continuous-learning supervisor reports a
/// lifecycle transition (`{"event":"promotion"|"rollback"|"quarantine"|
/// "probation_start"|"probation_end"}`) so `/stats` exposes fleet-level
/// learning counters alongside the serving counters.
fn handle_supervisor(shared: &Shared, request: &http::Request) -> (u16, String, bool) {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(Json::parse);
    let json = match parsed {
        Ok(json) => json,
        Err(reason) => {
            return (
                400,
                error_body(&format!("bad supervisor body: {reason}"), false),
                false,
            )
        }
    };
    let event = json.get("event").and_then(Json::as_str).unwrap_or("");
    match event {
        "promotion" => {
            shared.promotions.fetch_add(1, Ordering::SeqCst);
        }
        "rollback" => {
            shared.rollbacks.fetch_add(1, Ordering::SeqCst);
        }
        "quarantine" => {
            shared.quarantined.fetch_add(1, Ordering::SeqCst);
        }
        "probation_start" => {
            shared.probation.store(true, Ordering::SeqCst);
        }
        "probation_end" => {
            shared.probation.store(false, Ordering::SeqCst);
        }
        _ => {
            return (
                400,
                error_body(
                    "`event` must be promotion, rollback, quarantine, probation_start \
                     or probation_end",
                    false,
                ),
                false,
            )
        }
    }
    (
        200,
        Json::obj([
            ("status", Json::Str("recorded".into())),
            ("event", Json::Str(event.into())),
        ])
        .to_string(),
        false,
    )
}

fn handle_reload(
    shared: &Shared,
    replica: &Replica<Conn>,
    request: &http::Request,
) -> (u16, String, bool) {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(Json::parse);
    let path = match parsed {
        Ok(json) => match json.get("path").and_then(Json::as_str) {
            Some(path) if !path.is_empty() => PathBuf::from(path),
            _ => {
                return (
                    400,
                    error_body("reload body must be {\"path\":\"<model file>\"}", false),
                    false,
                )
            }
        },
        Err(reason) => {
            return (
                400,
                error_body(&format!("bad reload body: {reason}"), false),
                false,
            )
        }
    };
    // Rolling reload across the fleet. This request occupies one
    // in-flight slot on its own replica, so it names itself as the
    // requester: that replica's drain waits for in-flight == 1.
    match shared.router.rolling_reload(
        &*shared.config.fs,
        &path,
        Some(replica.id()),
        shared.config.reload_drain_timeout,
    ) {
        Ok(report) => {
            let generations = report
                .generations
                .iter()
                .map(|g| Json::Num(*g as f64))
                .collect();
            let steps = report
                .steps
                .iter()
                .map(|step| Json::Arr(step.iter().map(|g| Json::Num(*g as f64)).collect()))
                .collect();
            (
                200,
                Json::obj([
                    ("status", Json::Str("reloaded".into())),
                    ("generation", Json::Num(report.fleet_generation() as f64)),
                    ("generations", Json::Arr(generations)),
                    ("steps", Json::Arr(steps)),
                ])
                .to_string(),
                false,
            )
        }
        // Rejected reloads leave the last-good models serving. A bad
        // path or corrupt candidate is the caller's to fix (400); a
        // transient durable-storage failure reading the candidate is
        // worth retrying (503).
        Err(ReloadError::Rejected(err)) => {
            let retriable = err.is_retriable();
            let status = if retriable { 503 } else { 400 };
            (
                status,
                error_body(&format!("reload rejected: {err}"), retriable),
                false,
            )
        }
        // A drain timeout is transient (in-flight work outlasted the
        // window): already-swapped replicas keep the new model, the
        // rest keep the old one, and a retry finishes the roll.
        Err(ReloadError::DrainTimeout { replica }) => (
            503,
            error_body(
                &format!("reload aborted: replica {replica} did not drain in time"),
                true,
            ),
            false,
        ),
        // Another reload holds the roll; this attempt changed nothing
        // and can simply be retried once the winner finishes.
        Err(ReloadError::Busy) => (
            503,
            error_body("reload already in progress: retry shortly", true),
            false,
        ),
    }
}

/// `POST /replica` — admin/test hook to kill or revive one replica.
fn handle_replica(shared: &Shared, request: &http::Request) -> (u16, String, bool) {
    let parsed = request
        .body_str()
        .map_err(|e| e.to_string())
        .and_then(Json::parse);
    let json = match parsed {
        Ok(json) => json,
        Err(reason) => {
            return (
                400,
                error_body(&format!("bad replica body: {reason}"), false),
                false,
            )
        }
    };
    let id = match json.get("replica").and_then(Json::as_f64) {
        Some(v) if v >= 0.0 && v.fract() == 0.0 => v as usize,
        _ => {
            return (
                400,
                error_body("replica body must carry an integer `replica` index", false),
                false,
            )
        }
    };
    let (verb, done) = match json.get("action").and_then(Json::as_str) {
        Some("kill") => ("killed", shared.router.kill(id)),
        Some("revive") => ("revived", shared.router.revive(id)),
        // Chaos hook: (re)arm the forced-failure counter mid-run, so
        // the learning supervisor can stage a provably-bad promotion
        // and clear leftover tokens after rolling it back. `count`
        // replaces the counter (it does not add to it).
        Some("force_fail") => {
            let count = match json.get("count").and_then(Json::as_f64) {
                Some(v) if v >= 0.0 && v.fract() == 0.0 => v as u64,
                None => 0,
                _ => {
                    return (
                        400,
                        error_body("`count` must be a non-negative integer", false),
                        false,
                    )
                }
            };
            shared.force_fail.store(count, Ordering::SeqCst);
            ("force-fail armed", shared.router.replica(id).is_some())
        }
        _ => {
            return (
                400,
                error_body(
                    "`action` must be \"kill\", \"revive\" or \"force_fail\"",
                    false,
                ),
                false,
            )
        }
    };
    if !done {
        return (
            400,
            error_body(
                &format!("no such replica {id} (fleet has {})", shared.router.len()),
                false,
            ),
            false,
        );
    }
    (
        200,
        Json::obj([
            ("status", Json::Str(verb.into())),
            ("replica", Json::Num(id as f64)),
        ])
        .to_string(),
        false,
    )
}

fn handle_shutdown(shared: &Shared) -> (u16, String, bool) {
    shared.shutting_down.store(true, Ordering::SeqCst);
    // Unblock the acceptor's blocking accept() with a self-connection;
    // it will observe the flag and stop accepting.
    let _ = TcpStream::connect(shared.addr);
    (
        200,
        Json::obj([("status", Json::Str("shutting down".into()))]).to_string(),
        false,
    )
}

/// The wait a request's `deadline_ms` asks for: a positive number of
/// milliseconds, at most an hour.
fn requested_deadline(ms: f64) -> Option<Duration> {
    (ms.is_finite() && ms > 0.0 && ms <= 3_600_000.0).then(|| Duration::from_secs_f64(ms / 1e3))
}

/// The wait the tree's `deadline_ms` asks for, `None` without one, or
/// the 400 text.
fn deadline_for(body: &Json) -> Result<Option<Duration>, String> {
    match body.get("deadline_ms") {
        None => Ok(None),
        Some(value) => value
            .as_f64()
            .and_then(requested_deadline)
            .map(Some)
            .ok_or_else(|| "deadline_ms must be a positive number of milliseconds".into()),
    }
}

/// Records a queued-phase deadline miss. Pinned by
/// [`counts_against_breaker`]: the model was never invoked, so the
/// breaker is untouched.
fn record_queued_deadline(replica: &Replica<Conn>) {
    replica.count_deadline_missed();
    if counts_against_breaker(504, FailurePhase::QueuedDeadline) {
        replica.breaker().record_failure(Instant::now());
    }
}

/// Records a compute-phase deadline miss: the deadline expired after
/// the model ran. When the *primary* produced the late answer this
/// counts against the breaker (a primary too slow to answer in time
/// has failed); a late baseline answer does not touch it.
fn record_compute_deadline(replica: &Replica<Conn>, breaker: &CircuitBreaker, served: Served) {
    replica.count_deadline_missed();
    if served == Served::Primary && counts_against_breaker(504, FailurePhase::Compute) {
        breaker.record_failure(Instant::now());
    }
}

/// A prediction body, read by the scanner or parsed into a tree.
enum Body {
    /// The rows, read without a tree.
    Rows(Matrix),
    /// The tree, whose rows [`parse_rows`] has yet to check.
    Tree(Json),
}

/// Reads a prediction body without a tree: the wait its `deadline_ms`
/// asks for and its rows. `None` for anything [`json::scan_request`]
/// does not expect, and for an invalid `deadline_ms`.
fn scan_body(text: &str, shape: Shape, width: usize) -> Option<(Option<Duration>, Matrix)> {
    let (xs, deadline_ms) = json::scan_request(text, shape, width)?;
    let requested = match deadline_ms {
        None => None,
        Some(ms) => Some(requested_deadline(ms)?),
    };
    Some((requested, xs))
}

/// Parses the body's `inputs` into a `rows x width` matrix, or the 400
/// text naming what is wrong with it.
fn parse_rows(body: &Json, shape: Shape, width: usize) -> Result<Matrix, String> {
    let not_numbers = "request must carry an `inputs` array of numbers";
    let rows = match (shape, body.get("inputs")) {
        (Shape::Single, Some(row)) => std::slice::from_ref(row),
        (Shape::Single, None) => return Err(not_numbers.into()),
        (Shape::Batch, Some(Json::Arr(rows))) if !rows.is_empty() => rows.as_slice(),
        (Shape::Batch, _) => {
            return Err(
                "request must carry a non-empty `inputs` array of configuration rows".into(),
            )
        }
    };
    let mut xs = Matrix::zeros(rows.len(), width);
    for (r, row) in rows.iter().enumerate() {
        // `/predict` has a single row, so its texts name no row.
        let at = || match shape {
            Shape::Single => String::new(),
            Shape::Batch => format!(" in row {r}"),
        };
        let values = row.as_f64_array().ok_or_else(|| match shape {
            Shape::Single => not_numbers.to_string(),
            Shape::Batch => format!("inputs row {r} must be an array of numbers"),
        })?;
        if values.len() != width {
            return Err(format!(
                "configuration width mismatch{}: expected {width}, got {}",
                at(),
                values.len()
            ));
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!(
                "configuration feature {index}{} is not finite",
                at()
            ));
        }
        xs.row_mut(r).copy_from_slice(&values);
    }
    Ok(xs)
}

/// `POST /predict` and `POST /predict_batch`: the rows run as one batch
/// through the worker's reusable scratch and band engine, under one
/// deadline, breaker and degradation policy. A batch comes all from the
/// primary or all from the baseline, never mixed, so `degraded` stays a
/// single flag.
fn handle_predict(
    shared: &Shared,
    replica: &Replica<Conn>,
    state: &mut WorkerState,
    request: &http::Request,
    started: Instant,
    shape: Shape,
) -> (u16, String, bool) {
    let snapshot = replica.slot().snapshot();
    // The scanner reads a well-formed body. Anything else is parsed into
    // a tree, in the order that decides which error wins: an unparsable
    // body or a bad `deadline_ms` is a 400, then a queued deadline miss
    // a 504, then bad rows a 400.
    let scanned = request
        .body_str()
        .ok()
        .and_then(|text| scan_body(text, shape, snapshot.inputs()));
    let (requested, body) = match scanned {
        Some((requested, xs)) => (requested, Body::Rows(xs)),
        None => {
            let tree = match request
                .body_str()
                .map_err(|e| e.to_string())
                .and_then(Json::parse)
            {
                Ok(json) => json,
                Err(reason) => {
                    return (
                        400,
                        error_body(&format!("bad request body: {reason}"), false),
                        false,
                    )
                }
            };
            match deadline_for(&tree) {
                Ok(requested) => (requested, Body::Tree(tree)),
                Err(reason) => return (400, error_body(&reason, false), false),
            }
        }
    };
    let deadline = started + requested.unwrap_or(shared.config.default_deadline);
    // Time already burned in the queue counts against the deadline: a
    // request that waited too long is answered 504 before any compute.
    if Instant::now() >= deadline {
        record_queued_deadline(replica);
        return (
            504,
            error_body("deadline exceeded while queued", true),
            false,
        );
    }
    let xs = match body {
        Body::Rows(xs) => xs,
        Body::Tree(tree) => match parse_rows(&tree, shape, snapshot.inputs()) {
            Ok(xs) => xs,
            Err(reason) => return (400, error_body(&reason, false), false),
        },
    };

    if !shared.config.slow_per_request.is_zero() {
        std::thread::sleep(shared.config.slow_per_request);
    }

    let breaker = replica.breaker();
    let now = Instant::now();
    let outcome = snapshot.predict_batch(
        &xs,
        || breaker.allow_primary(now),
        || shared.take_forced_failure(),
        &mut state.scratch,
        &mut state.engine,
    );
    if outcome.primary_failure.is_some() {
        breaker.record_failure(Instant::now());
    }
    let (ys, served) = match outcome.answer {
        Ok(answer) => answer,
        Err(err @ (ModelError::NonFiniteInput { .. } | ModelError::WidthMismatch { .. })) => {
            // `parse_rows` already rejected wrong widths and non-finite
            // raw features, so this comes from the primary: a feature
            // that standardizes to a non-finite value. A caller error
            // never counts against the breaker (FailurePhase::CallerError),
            // so the half-open trial is released without a verdict.
            breaker.abandon_trial();
            return (400, error_body(&err.to_string(), false), false);
        }
        // No model answered; the primary's failure, if it was tried,
        // is the root cause.
        Err(err) => {
            let reason = outcome.primary_failure.unwrap_or(err);
            return (500, error_body(&reason.to_string(), false), false);
        }
    };

    // The answer must also *arrive* within the deadline.
    if Instant::now() >= deadline {
        record_compute_deadline(replica, breaker, served);
        return (
            504,
            error_body("deadline exceeded during computation", true),
            false,
        );
    }
    // Recorded only after the deadline check: a primary answer that
    // arrives too late is a compute-phase failure, not a success.
    if served == Served::Primary {
        breaker.record_success();
    }

    let degraded = served.is_degraded();
    if degraded {
        replica.count_degraded();
    }
    let model = match served {
        Served::Primary => "mlp",
        Served::Baseline => "linear-baseline",
    };
    let answer = Answer {
        degraded,
        generation: replica.slot().generation(),
        model,
        output_names: snapshot.output_names(),
        replica: replica.id() as u64,
    };
    (200, json::write_answer(shape, &answer, &ys), degraded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::testgen;
    use wlc_math::propcheck::{self, Gen};

    /// Pins the breaker-accounting table from the serve-layer bugfix
    /// sweep: router sheds and caller errors never count, queued
    /// deadlines never count, and only compute-phase 5xx failures do.
    #[test]
    fn breaker_accounting_rule_is_pinned() {
        // Router-level 503 sheds: never.
        assert!(!counts_against_breaker(503, FailurePhase::RouterShed));
        // Client-side 4xx: never, regardless of code.
        for status in [400, 404, 405] {
            assert!(!counts_against_breaker(status, FailurePhase::CallerError));
        }
        // Deadline expired in the queue: the model never ran.
        assert!(!counts_against_breaker(504, FailurePhase::QueuedDeadline));
        // Compute-phase failures: 5xx counts, including late answers.
        assert!(counts_against_breaker(500, FailurePhase::Compute));
        assert!(counts_against_breaker(504, FailurePhase::Compute));
        // A compute-phase 2xx/4xx is not a failure even in that phase.
        assert!(!counts_against_breaker(200, FailurePhase::Compute));
        assert!(!counts_against_breaker(400, FailurePhase::Compute));
    }

    /// A job that panics costs its own connection only: the worker
    /// rebuilds its state and serves the next job, and the replica's
    /// in-flight count returns to 0, so a rolling reload can still
    /// drain it.
    #[test]
    fn a_panicking_job_leaves_the_worker_serving_and_in_flight_at_zero() {
        let mut ds = wlc_data::Dataset::new(vec!["a".into()], vec!["y".into()]).unwrap();
        for i in 0..4 {
            let a = f64::from(i);
            ds.push(wlc_data::Sample::new(vec![a], vec![2.0 * a]))
                .unwrap();
        }
        let baseline = wlc_model::baseline::LinearModel::fit(
            &ds,
            wlc_model::baseline::LinearFeatures::FirstOrder,
        )
        .unwrap();
        let bundle = FallbackModel::new(None, Some(baseline), vec![], vec![]).unwrap();
        let replica: Arc<Replica<u32>> =
            Arc::new(Replica::new(0, bundle, 3, Duration::from_millis(10), 8));
        // Each worker state counts the jobs it has served since it was
        // built; the log records (job, count) for each job that ends.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pool = {
            let (replica, log) = (Arc::clone(&replica), Arc::clone(&log));
            ServicePool::start_with_state(
                1,
                replica.queue(),
                |_worker| 0u32,
                move |_worker, served, job: u32| {
                    run_job(
                        served,
                        || 0,
                        &replica,
                        |served| {
                            *served += 1;
                            if job == 1 {
                                panic!("injected failure serving job 1");
                            }
                            log.lock().unwrap().push((job, *served));
                        },
                    );
                },
            )
        };
        for job in 0..3 {
            replica.begin_dispatch();
            replica.queue().push(job).unwrap();
        }
        replica.close();
        pool.join();
        assert_eq!(*log.lock().unwrap(), [(0, 1), (2, 1)]);
        assert_eq!(replica.load(), 0);
    }

    /// The shed Retry-After jitter stays in its documented bounds and
    /// actually uses them all, so stampeding clients are spread out.
    #[test]
    fn shed_retry_after_jitter_bounds() {
        let mut rng = Xoshiro256::seed_from(0x5eed);
        let draws: Vec<u64> = (0..256).map(|_| shed_retry_after(&mut rng)).collect();
        assert!(draws.iter().all(|&v| (1..=3).contains(&v)));
        for want in 1..=3 {
            assert!(draws.contains(&want), "value {want} never drawn");
        }
    }

    /// A fixed seed reproduces the whole jitter sequence; a different
    /// seed produces a different one.
    #[test]
    fn shed_retry_after_jitter_is_seed_deterministic() {
        let sequence = |seed: u64| -> Vec<u64> {
            let mut rng = Xoshiro256::seed_from(seed);
            (0..64).map(|_| shed_retry_after(&mut rng)).collect()
        };
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
    }

    /// A writer that keeps what it is given and counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Each request-log line reaches its writer in one `write` call,
    /// byte for byte in the documented layout, for a worker's answer
    /// and for the acceptor's shed.
    #[test]
    fn log_line_is_one_write_of_the_documented_bytes() {
        let answered = LogLine {
            replica: Some(2),
            method: "POST",
            path: "/predict",
            status: 200,
            latency_ms: 0.1234,
            queue_depth: 3,
            degraded: false,
            shed: false,
        };
        let shed = LogLine {
            replica: None,
            method: "-",
            path: "-",
            status: 503,
            latency_ms: 12.0,
            queue_depth: 64,
            degraded: false,
            shed: true,
        };
        for (line, want) in [
            (
                answered,
                "wlc-serve method=POST path=/predict status=200 replica=2 \
                 latency_ms=0.123 queue_depth=3 degraded=false shed=false\n",
            ),
            (
                shed,
                "wlc-serve method=- path=- status=503 replica=- \
                 latency_ms=12.000 queue_depth=64 degraded=false shed=true\n",
            ),
        ] {
            let mut out = CountingWriter::default();
            line.write_to(&mut out).expect("in-memory write");
            assert_eq!(out.writes, 1);
            assert_eq!(String::from_utf8(out.bytes).expect("utf8"), want);
        }
    }

    /// The tree path for a prediction body: its `Ok` rows and
    /// deadline, or its first 400 text.
    fn tree_body(
        text: &str,
        shape: Shape,
        width: usize,
    ) -> Result<(Option<Duration>, Matrix), String> {
        let body = Json::parse(text)?;
        Ok((deadline_for(&body)?, parse_rows(&body, shape, width)?))
    }

    /// One number as a client might write it: any `f64` format, or a
    /// token the tree reads differently or not at all.
    fn number_text(g: &mut Gen) -> String {
        match g.usize_in(0, 10) {
            0 => g
                .pick(&[
                    "+1", ".5", "01", "1.", "-0", "1E5", "2e+3", "1e999", "-1e999", "1e-400",
                    "null", "true", "\"1\"", "-", "[1]",
                ])
                .to_string(),
            1 => format!("{}", testgen::finite(g)),
            2 => format!("{:e}", testgen::finite(g)),
            _ => format!("{:?}", testgen::finite(g)),
        }
    }

    /// A row that is usually `width` numbers wide, sometimes one more or
    /// one fewer.
    fn row_text(g: &mut Gen, width: usize) -> String {
        let width = match g.usize_in(0, 12) {
            0 => width + 1,
            1 => width - 1,
            _ => width,
        };
        let numbers: Vec<String> = (0..width).map(|_| number_text(g)).collect();
        format!("[{}]", numbers.join(","))
    }

    /// A prediction body that is mostly well formed, with the keys in
    /// either order, and sometimes a bad `deadline_ms`, an empty batch,
    /// a duplicate, escaped or unknown key, or whitespace between tokens.
    fn request_text(g: &mut Gen, shape: Shape, width: usize) -> String {
        let inputs = match shape {
            Shape::Single => row_text(g, width),
            Shape::Batch => {
                let count = if g.usize_in(0, 12) == 0 {
                    0
                } else {
                    g.usize_in(1, 5)
                };
                let rows: Vec<String> = (0..count).map(|_| row_text(g, width)).collect();
                format!("[{}]", rows.join(","))
            }
        };
        let mut fields = vec![format!("\"inputs\":{inputs}")];
        if g.usize_in(0, 2) == 0 {
            let ms = match g.usize_in(0, 6) {
                0 => g
                    .pick(&["0", "-5", "3600001", "1e999", "null", "\"5\"", "0.0001"])
                    .to_string(),
                1 => format!("{:?}", g.f64_in(0.5, 3.6e6)),
                _ => g.u32_in(1, 3_600_001).to_string(),
            };
            fields.push(format!("\"deadline_ms\":{ms}"));
        }
        match g.usize_in(0, 12) {
            0 => fields.push(fields[0].clone()),
            1 => fields.push("\"extra\":1".to_string()),
            2 => fields[0] = format!("\"in\\u0070uts\":{inputs}"),
            _ => {}
        }
        if g.usize_in(0, 2) == 0 {
            fields.reverse();
        }
        let ws = *g.pick(&["", "", " ", "\n\t"]);
        format!("{{{ws}{}{ws}}}", fields.join(&format!("{ws},{ws}")))
    }

    fn same_rows(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Differential: on random bodies and edits of them, the scanner
    /// returns `None` or exactly the tree path's rows (bitwise) and
    /// deadline, and `None` whenever the tree path answers 400.
    #[test]
    fn request_scanner_agrees_with_the_tree_path() {
        let cases = 4096;
        let mut scanned = 0;
        propcheck::run_cases(cases, |g| {
            let shape = *g.pick(&[Shape::Single, Shape::Batch]);
            let width = g.usize_in(1, 6);
            let mut text = request_text(g, shape, width);
            if g.usize_in(0, 3) == 0 {
                text = testgen::mutate(g, &text);
            }
            match (
                scan_body(&text, shape, width),
                tree_body(&text, shape, width),
            ) {
                (None, _) => {}
                (Some((deadline, xs)), Ok((want_deadline, want))) => {
                    scanned += 1;
                    assert_eq!(deadline, want_deadline, "{text}");
                    assert!(same_rows(&xs, &want), "{text}");
                }
                (Some(_), Err(reason)) => {
                    panic!("scanned a body the tree path answers 400 ({reason}): {text}")
                }
            }
        });
        // The generator must reach the scanner's accepting path often
        // enough for the comparison to mean something.
        assert!(
            scanned > cases / 8,
            "only {scanned} of {cases} bodies scanned"
        );
    }

    /// Every body `ServeClient` writes takes the scanner, and reads back
    /// exactly.
    #[test]
    fn request_scanner_reads_every_body_the_client_writes() {
        propcheck::run_cases(512, |g| {
            let shape = *g.pick(&[Shape::Single, Shape::Batch]);
            let width = g.usize_in(1, 6);
            let count = match shape {
                Shape::Single => 1,
                Shape::Batch => g.usize_in(1, 6),
            };
            let rows: Vec<Vec<f64>> = (0..count)
                .map(|_| (0..width).map(|_| testgen::finite(g)).collect())
                .collect();
            let deadline_ms = (g.usize_in(0, 2) == 0).then(|| g.u64_in(1, 3_600_001));
            let text = json::write_request(shape, rows.iter().map(Vec::as_slice), deadline_ms);
            let (deadline, xs) = scan_body(&text, shape, width).expect("a body the client writes");
            assert_eq!(
                deadline,
                deadline_ms.and_then(|ms| requested_deadline(ms as f64))
            );
            let want = Matrix::from_vec(count, width, rows.concat()).unwrap();
            assert!(same_rows(&xs, &want), "{text}");
        });
    }
}
