//! `serve_single` and `serve_batch`: `wlc serve` run as users run it,
//! loaded only through `ServeClient`.

use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use wlc::math::rng::Seed;
use wlc::math::Matrix;
use wlc::model::fallback::FallbackModel;
use wlc::model::{PerformanceModel, PredictScratch, WorkloadModel};
use wlc::nn::BandEngine;
use wlc::serve::{ClientConfig, Json, Replica, Router, ServeClient};

use crate::characterize::{builder, design, simulate};
use crate::load::{closed_loop, open_loop, Sample};
use crate::report::{Check, Report, Tally};
use crate::trace::{self_times_by_name, Tracer, NO_SPAN};
use crate::{host, stats, Ctx, Res};

/// Which endpoint a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `POST /predict` of one 4-input configuration.
    Single,
    /// `POST /predict_batch` of [`BATCH_ROWS`] configurations.
    Batch,
}

/// Offered open-loop rates (requests/s): constants, never calibrated at
/// run time, set well below quiet-time capacity.
const SINGLE_RATE: f64 = 1000.0;
const BATCH_RATE: f64 = 100.0;
/// Rows per `/predict_batch` request.
const BATCH_ROWS: usize = 256;
/// Checked requests that end each set-up.
const SINGLE_WARMUP: usize = 1000;
const BATCH_WARMUP: usize = 200;
/// Server starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The served model: trained on this many simulated configurations.
const TRAIN_CONFIGS: usize = 128;
const SERVED_EPOCHS: usize = 1500;
/// Sequential calls per traced probe.
const PROBE_CALLS: usize = 1000;
const CODEC_REPS: usize = 2000;
const READY_TIMEOUT: Duration = Duration::from_secs(20);

impl Shape {
    fn rate(self) -> f64 {
        match self {
            Shape::Single => SINGLE_RATE,
            Shape::Batch => BATCH_RATE,
        }
    }

    fn warmup(self) -> usize {
        match self {
            Shape::Single => SINGLE_WARMUP,
            Shape::Batch => BATCH_WARMUP,
        }
    }

    fn rows(self) -> usize {
        match self {
            Shape::Single => 1,
            Shape::Batch => BATCH_ROWS,
        }
    }
}

/// Everything built from the seed before any clock starts.
struct Fixture {
    shape: Shape,
    model_path: std::path::PathBuf,
    model: WorkloadModel,
    inputs: Vec<Vec<f64>>,
    expected: Vec<Vec<f64>>,
}

fn fixture(ctx: &Ctx, shape: Shape) -> Res<Fixture> {
    let seed = Seed::new(ctx.seed);
    let train = simulate(
        &design(seed.derive(1).value(), TRAIN_CONFIGS)?,
        ctx.seed,
        ctx.jobs,
    )?;
    let model_path = ctx.work.join("served.model");
    builder(SERVED_EPOCHS, ctx.seed, ctx.jobs)
        .train(&train)?
        .model
        .save(&model_path)?;
    // The reference answers come from the file the server loads.
    let model = WorkloadModel::load(&model_path)?;
    let inputs: Vec<Vec<f64>> = design(seed.derive(3).value(), shape.rows())?
        .iter()
        .map(|c| c.as_vector())
        .collect();
    let expected = match shape {
        Shape::Single => vec![model.predict(&inputs[0])?],
        Shape::Batch => {
            let out = predict_batch(&model, &inputs)?;
            (0..out.rows()).map(|r| out.row(r).to_vec()).collect()
        }
    };
    Ok(Fixture {
        shape,
        model_path,
        model,
        inputs,
        expected,
    })
}

/// The server's batch path: one 1-job band engine per worker.
fn predict_batch(model: &WorkloadModel, inputs: &[Vec<f64>]) -> Res<Matrix> {
    let rows: Vec<&[f64]> = inputs.iter().map(Vec::as_slice).collect();
    let xs = Matrix::from_rows(&rows)?;
    let mut scratch = PredictScratch::new();
    let mut engine = BandEngine::new(1);
    Ok(model
        .predict_batch_engine(&xs, &mut scratch, &mut engine)?
        .clone())
}

fn same_bits(got: &[Vec<f64>], want: &[Vec<f64>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

impl Fixture {
    /// Sends the workload's request once and checks the answer: bit-equal
    /// to the in-process prediction, from the MLP, not degraded.
    fn send(&self, client: &ServeClient) -> Check {
        let verdict = |rows: &[Vec<f64>], degraded: bool, model: &str| {
            if !degraded && model == "mlp" && same_bits(rows, &self.expected) {
                Check::Ok
            } else {
                Check::Wrong
            }
        };
        match self.shape {
            Shape::Single => match client.predict(&self.inputs[0]) {
                Ok(p) => verdict(std::slice::from_ref(&p.outputs), p.degraded, &p.model),
                Err(_) => Check::Failed,
            },
            Shape::Batch => match client.predict_batch(&self.inputs) {
                Ok(p) => verdict(&p.outputs, p.degraded, &p.model),
                Err(_) => Check::Failed,
            },
        }
    }

    fn path(&self) -> &'static str {
        match self.shape {
            Shape::Single => "/predict",
            Shape::Batch => "/predict_batch",
        }
    }

    /// The request body exactly as `ServeClient` builds it.
    fn request_body(&self) -> String {
        let inputs = match self.shape {
            Shape::Single => Json::nums(&self.inputs[0]),
            Shape::Batch => Json::Arr(self.inputs.iter().map(|r| Json::nums(r)).collect()),
        };
        Json::Obj([("inputs".to_string(), inputs)].into_iter().collect()).to_string()
    }
}

/// A client that reports every failure: one attempt, no retries.
fn client(addr: &str) -> ServeClient {
    ServeClient::new(
        addr,
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
}

/// A running `wlc serve` process.
struct ServerProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProcess {
    /// Starts `wlc serve` with default flags, one worker per core and
    /// per-request log lines appended to `log`.
    fn spawn(wlc: &Path, model: &Path, workers: usize, log: &Path) -> Res<ServerProcess> {
        let log = OpenOptions::new().create(true).append(true).open(log)?;
        let mut child = Command::new(wlc)
            .arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--workers", &workers.to_string(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Owned from here on, so an early return reaps the process.
        let mut server = ServerProcess {
            child,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected first line from wlc serve: {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn wait_ready(&self) -> Res<()> {
        let started = Instant::now();
        let probe = client(&self.addr);
        loop {
            match probe.readyz() {
                Ok(_) => return Ok(()),
                Err(err) if started.elapsed() > READY_TIMEOUT => {
                    return Err(format!("server never became ready: {err}").into())
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// Graceful shutdown; waits for the process to exit cleanly.
    fn stop(mut self) -> Res<()> {
        client(&self.addr).shutdown()?;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(format!("wlc serve exited with {status}").into());
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // After `stop` the process is gone and both calls are no-ops;
        // on an error path this reaps the server instead of leaking it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn run(ctx: &Ctx, shape: Shape, report: &mut Report, tally: &Tally) -> Res<()> {
    let fx = fixture(ctx, shape)?;
    let log = ctx.work.join("server.log");

    // Set-up: spawn → ready → a fixed count of checked requests, timed
    // as the CPU it costs the server and this thread.
    let mut setups = Vec::new();
    let mut reference_s = Vec::new();
    let mut server = None;
    let starts = if ctx.traced { 1 } else { SETUPS };
    for k in 0..starts {
        reference_s.push(host::reference_cpu_s());
        let own0 = host::thread_cpu_ns();
        let started = ServerProcess::spawn(&ctx.wlc, &fx.model_path, ctx.jobs, &log)?;
        started.wait_ready()?;
        let warm = client(&started.addr);
        for _ in 0..shape.warmup() {
            tally.count(fx.send(&warm));
        }
        let cpu_ns = host::process_cpu_ns(&started.pid()) + (host::thread_cpu_ns() - own0);
        setups.push(cpu_ns as f64 / 1e9);
        if k + 1 < starts {
            started.stop()?;
        } else {
            server = Some(started);
        }
    }
    reference_s.push(host::reference_cpu_s());
    let server = server.expect("at least one set-up");
    let clients: Vec<ServeClient> = (0..ctx.jobs).map(|_| client(&server.addr)).collect();
    let send = |sender: usize, _: u64| tally.count(fx.send(&clients[sender]));

    // A quarter of the run offers the fixed open-loop rate; the rest (a
    // further quarter when traced, leaving time for the probes) is the
    // closed-loop capacity phase the end-to-end figure comes from.
    let tracer = Tracer::new(ctx.traced);
    let quarter = ctx.seconds / 4.0;
    let open = open_phase(ctx, &fx, &clients, &tracer, tally, quarter);
    let closed = if ctx.traced { quarter } else { 3.0 * quarter };
    let capacity = capacity_phase(ctx, &server, closed, send, &mut reference_s);
    report
        .diagnostics
        .insert("load.late_p99_ms", open.late_p99_ms);
    report
        .diagnostics
        .insert("wall.latency_p50_ms", open.p50_ms);
    report.diagnostics.insert(
        "wall.throughput_per_s",
        capacity.wall_per_s * shape.rows() as f64,
    );
    report
        .diagnostics
        .insert("host.reference_ms", stats::median(&reference_s) * 1e3);
    if ctx.traced {
        traced(ctx, &fx, &clients, &tracer, report, tally, &open, &capacity)?;
    } else {
        report.set_end_to_end(
            capacity.ok as f64 * shape.rows() as f64,
            capacity.server_cpu_s + capacity.client_cpu_s,
            &setups,
            &reference_s,
            host::peak_rss_mb(&server.pid()),
        );
    }
    server.stop()
}

/// What the open-loop phase measured.
struct OpenLoop {
    p50_ms: f64,
    late_p99_ms: f64,
    /// Untraced latencies (ms), failed requests as infinity.
    plain_ms: Vec<f64>,
    /// Traced latencies (ms); empty in untraced runs.
    traced_ms: Vec<f64>,
}

/// Offers the workload's fixed rate for `seconds`. Traced runs split
/// the phase into alternating untraced and traced blocks, so tracing
/// overhead is measured under the same host conditions.
fn open_phase(
    ctx: &Ctx,
    fx: &Fixture,
    clients: &[ServeClient],
    tracer: &Tracer,
    tally: &Tally,
    seconds: f64,
) -> OpenLoop {
    let rate = fx.shape.rate();
    let blocks = if ctx.traced { 4 } else { 1 };
    let count = (rate * seconds / blocks as f64).round() as usize;
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced_ms = Vec::new();
    for block in 0..blocks {
        let on = block % 2 == 1;
        let base = (block * count) as u64;
        let samples = open_loop(ctx.jobs, rate, count, |sender, i, due| {
            if !on {
                return tally.count(fx.send(&clients[sender]));
            }
            // The request span runs from the due time; its child covers
            // the `ServeClient` call, so the request's self time is the
            // generator's wait before sending.
            let sent = Instant::now();
            let ok = tally.count(fx.send(&clients[sender]));
            let done = Instant::now();
            let id = tracer.record("serve.request", NO_SPAN, base + i, due, done);
            tracer.record("client.send", id, base + i, sent, done);
            ok
        });
        if on {
            traced_ms.extend(samples.iter().map(Sample::latency_ms));
        } else {
            plain.extend(samples);
        }
    }
    let plain_ms: Vec<f64> = plain.iter().map(Sample::latency_ms).collect();
    let late: Vec<f64> = plain.iter().map(Sample::late_ms).collect();
    OpenLoop {
        p50_ms: stats::median(&plain_ms),
        late_p99_ms: stats::percentile(&stats::sorted(&late), 99.0),
        plain_ms,
        traced_ms,
    }
}

/// What the closed-loop capacity phase measured.
struct Capacity {
    ok: u64,
    wall_per_s: f64,
    server_cpu_s: f64,
    client_cpu_s: f64,
}

/// Seconds of closed-loop load between two host-speed reference runs.
const CAPACITY_WINDOW_S: f64 = 1.0;

/// One sender per core, back to back, with the CPU time server and
/// client spend on it. The phase runs in windows with a host-speed
/// reference run (appended to `reference_s`) before each, taken while
/// both sides idle.
fn capacity_phase(
    ctx: &Ctx,
    server: &ServerProcess,
    seconds: f64,
    send: impl Fn(usize, u64) -> bool + Sync,
    reference_s: &mut Vec<f64>,
) -> Capacity {
    let pid = server.pid();
    let windows = (seconds / CAPACITY_WINDOW_S).ceil().max(1.0);
    let mut total = Capacity {
        ok: 0,
        wall_per_s: 0.0,
        server_cpu_s: 0.0,
        client_cpu_s: 0.0,
    };
    let mut elapsed = 0.0;
    for _ in 0..windows as usize {
        reference_s.push(host::reference_cpu_s());
        let (server0, client0) = (host::cpu_seconds(&pid), host::cpu_seconds("self"));
        let window = closed_loop(ctx.jobs, Duration::from_secs_f64(seconds / windows), &send);
        total.server_cpu_s += host::cpu_seconds(&pid) - server0;
        total.client_cpu_s += host::cpu_seconds("self") - client0;
        total.ok += window.ok;
        elapsed += window.elapsed.as_secs_f64();
    }
    total.wall_per_s = total.ok as f64 / elapsed;
    total
}

/// The traced run's per-layer readings: open-loop tail, sequential
/// round-trip probes, CPU split, server counters, then in-process
/// probes of the JSON, model and hand-off layers.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    fx: &Fixture,
    clients: &[ServeClient],
    tracer: &Tracer,
    report: &mut Report,
    tally: &Tally,
    open: &OpenLoop,
    capacity: &Capacity,
) -> Res<()> {
    let sorted = stats::sorted(&open.plain_ms);
    report.set("serve.latency_p90_ms", stats::percentile(&sorted, 90.0));
    report.set("serve.latency_p99_ms", stats::percentile(&sorted, 99.0));
    if let Some((p, value, _)) = stats::tail(&sorted) {
        report.set("serve.latency_tail_pct", p);
        report.set("serve.latency_tail_ms", value);
    }
    report.set("serve.latency_samples", sorted.len() as f64);
    report.set(
        "trace.overhead_pct",
        (stats::median(&open.traced_ms) / open.p50_ms - 1.0) * 100.0,
    );
    let served = capacity.ok.max(1) as f64;
    report.set("serve.server_cpu_us", capacity.server_cpu_s / served * 1e6);
    report.set("serve.client_cpu_us", capacity.client_cpu_s / served * 1e6);
    report.set(
        "proc.cpu_s_per_op",
        (capacity.server_cpu_s + capacity.client_cpu_s) / served,
    );

    // Sequential round trips: the workload's request against a bodiless
    // `/healthz`, interleaved so both see the same host conditions.
    let probe = &clients[0];
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds / 8.0);
    let mut i = 0u64;
    while i < PROBE_CALLS as u64 || Instant::now() < deadline {
        tracer.span("serve.rtt", NO_SPAN, i, |_| tally.count(fx.send(probe)));
        tracer.span("serve.floor", NO_SPAN, i, |_| probe.healthz().is_ok());
        i += 1;
    }

    let stats_json = probe.stats()?;
    for (metric, key) in [
        ("serve.shed", "shed"),
        ("serve.degraded", "degraded"),
        ("serve.deadline_missed", "deadline_missed"),
    ] {
        report.set(
            metric,
            stats_json
                .get(key)
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
    }

    codec_probes(fx, probe, tracer, report)?;
    handoff_probe(fx, tracer)?;

    let by_name = self_times_by_name(&tracer.spans());
    let median_us = |name: &str| -> f64 {
        let v: Vec<f64> = by_name.get(name).map_or(Vec::new(), |v| {
            v.iter().map(|&ns| ns as f64 / 1e3).collect()
        });
        stats::median(&v)
    };
    let rtt = median_us("serve.rtt");
    let floor = median_us("serve.floor");
    report.set("serve.rtt_us", rtt);
    report.set("serve.floor_rtt_us", floor);
    report.set("serve.body_us", rtt - floor);
    report.set("serve.floor_share_pct", floor / rtt * 100.0);
    report.set("serve.body_share_pct", (rtt - floor) / rtt * 100.0);
    for (metric, span) in [
        ("serve.decode_us", "serve.decode"),
        ("serve.encode_us", "serve.encode"),
        ("client.encode_us", "client.encode"),
        ("client.decode_us", "client.decode"),
        ("model.predict_us", "model.predict"),
        ("serve.handoff_us", "serve.handoff"),
    ] {
        report.set(metric, median_us(span));
    }
    // Self time of a traced open-loop request is the generator's wait
    // before sending: latency the server never saw.
    let waits = median_us("serve.request");
    report.set(
        "trace.unattributed_pct",
        waits / (stats::median(&open.traced_ms) * 1e3) * 100.0,
    );
    crate::write_trace(ctx, tracer)
}

/// The JSON and model layers run in-process on the workload's own
/// request and response, mirroring what server and client do with them.
fn codec_probes(
    fx: &Fixture,
    probe: &ServeClient,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let body = fx.request_body();
    let response = probe.request("POST", fx.path(), &body)?;
    let response = response.body_str()?.to_string();
    report.set("serve.request_bytes", body.len() as f64);
    report.set("serve.response_bytes", response.len() as f64);
    let names: Vec<Json> = Json::parse(&response)?
        .get("output_names")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    let width = fx.inputs[0].len();
    let rows: Vec<&[f64]> = fx.inputs.iter().map(Vec::as_slice).collect();
    let xs = Matrix::from_rows(&rows)?;
    let mut scratch = PredictScratch::new();
    let mut engine = BandEngine::new(1);
    for i in 0..CODEC_REPS as u64 {
        let parsed = tracer.span("serve.decode", NO_SPAN, i, |_| server_decode(&body, width));
        if parsed.is_none_or(|xs| xs.rows() != fx.inputs.len()) {
            return Err("server-side decode of the workload request failed".into());
        }
        tracer.span("serve.encode", NO_SPAN, i, |_| {
            server_encode(fx, &names).len()
        });
        tracer.span("client.encode", NO_SPAN, i, |_| fx.request_body().len());
        let rows = tracer.span("client.decode", NO_SPAN, i, |_| client_decode(&response));
        if !rows.is_some_and(|rows| same_bits(&rows, &fx.expected)) {
            return Err("client-side decode of the workload response failed".into());
        }
        tracer.span("model.predict", NO_SPAN, i, |_| -> Res<()> {
            match fx.shape {
                Shape::Single => drop(fx.model.predict(&fx.inputs[0])?),
                Shape::Batch => drop(fx.model.predict_batch_engine(
                    &xs,
                    &mut scratch,
                    &mut engine,
                )?),
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// `Json::parse` plus row extraction, as the server's handlers do.
fn server_decode(body: &str, width: usize) -> Option<Matrix> {
    let json = Json::parse(body).ok()?;
    let _deadline = json.get("deadline_ms").and_then(Json::as_f64);
    let inputs = json.get("inputs")?;
    match inputs.as_f64_array() {
        Some(row) => Matrix::from_rows(&[row.as_slice()]).ok(),
        None => {
            let rows = inputs.as_arr()?;
            let mut xs = Matrix::zeros(rows.len(), width);
            for (r, row) in rows.iter().enumerate() {
                xs.row_mut(r).copy_from_slice(&row.as_f64_array()?);
            }
            Some(xs)
        }
    }
}

/// The success response as the server's handlers build it.
fn server_encode(fx: &Fixture, names: &[Json]) -> String {
    let outputs = match fx.shape {
        Shape::Single => Json::nums(&fx.expected[0]),
        Shape::Batch => Json::Arr(fx.expected.iter().map(|r| Json::nums(r)).collect()),
    };
    let mut fields = vec![
        ("outputs", outputs),
        ("output_names", Json::Arr(names.to_vec())),
        ("degraded", Json::Bool(false)),
        ("model", Json::Str("mlp".into())),
        ("generation", Json::Num(0.0)),
        ("replica", Json::Num(0.0)),
    ];
    if fx.shape == Shape::Batch {
        fields.push(("rows", Json::Num(fx.inputs.len() as f64)));
    }
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_string()
}

/// Response parsing as `ServeClient` does it: every field it reads.
fn client_decode(text: &str) -> Option<Vec<Vec<f64>>> {
    let json = Json::parse(text).ok()?;
    let outputs = json.get("outputs")?;
    let rows = match outputs.as_f64_array() {
        Some(row) => vec![row],
        None => outputs
            .as_arr()?
            .iter()
            .map(Json::as_f64_array)
            .collect::<Option<_>>()?,
    };
    let _names: Vec<String> = json
        .get("output_names")?
        .as_arr()?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    json.get("degraded")?.as_bool()?;
    json.get("model")?.as_str()?;
    json.get("generation")?.as_f64()?;
    json.get("replica")?.as_f64()?;
    Some(rows)
}

/// `Router::dispatch` of a timestamp that an idle consumer thread pops
/// from the replica's bounded queue, as a server worker would.
fn handoff_probe(fx: &Fixture, tracer: &Tracer) -> Res<()> {
    let bundle = FallbackModel::new(Some(fx.model.clone()), None, vec![], vec![])?;
    let replica: Arc<Replica<Instant>> =
        Arc::new(Replica::new(0, bundle, 5, Duration::from_secs(5), 64));
    let router = Router::new(vec![Arc::clone(&replica)]);
    let queue = replica.queue();
    let (tx, rx) = mpsc::channel();
    let consumer = std::thread::spawn(move || {
        while let Some(sent) = queue.pop() {
            if tx.send((sent, Instant::now())).is_err() {
                return;
            }
        }
    });
    let mut result = Ok(());
    for i in 0..PROBE_CALLS as u64 {
        // Let the consumer park, as an idle worker does between requests.
        std::thread::sleep(Duration::from_micros(200));
        if router.dispatch(Instant::now()).is_err() {
            result = Err("router refused a dispatch to an idle replica".into());
            break;
        }
        let Ok((sent, popped)) = rx.recv() else {
            result = Err("hand-off consumer stopped".into());
            break;
        };
        replica.finish_request();
        tracer.record("serve.handoff", NO_SPAN, i, sent, popped);
    }
    replica.close();
    consumer.join().map_err(|_| "hand-off consumer panicked")?;
    result
}
