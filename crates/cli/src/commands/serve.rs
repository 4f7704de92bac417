//! `wlc serve` — run the fault-tolerant prediction server.

use std::io::Write;
use std::time::Duration;

use wlc_model::baseline::{LinearFeatures, LinearModel};
use wlc_model::fallback::FallbackModel;
use wlc_model::{PerformanceModel, WorkloadModel};
use wlc_serve::{ServeConfig, ServeError, Server};

use crate::args::Flags;

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc serve — fault-tolerant prediction server (HTTP/1.1 + JSON)

MODEL SOURCES (at least one required):
    --model <path>      MLP model file (from `wlc train`); if it is
                        missing or invalid and a baseline is available,
                        the server starts in degraded mode instead
    --baseline <path>   linear baseline file (wlc-linear v1 format)
    --data <path>       CSV dataset: fit a linear baseline at startup
    --features <kind>   baseline features: first-order | interactions
                        | quadratic                [default: first-order]

SERVER:
    --addr <ip:port>    bind address            [default: 127.0.0.1:0]
    --replicas <n>      serving replicas behind the least-loaded
                        router; each owns its own model slot,
                        breaker, queue and workers      [default: 1]
    --workers <n>       worker threads per replica      [default: 4]
    --band-jobs <n>     row-band threads inside each /predict_batch
                        forward pass; predictions are bitwise
                        identical for every setting     [default: 1]
    --queue <n>         per-replica queue capacity; requests are shed
                        with a retriable 503 only when every
                        replica's queue is full         [default: 64]
    --watermark <n>     /readyz not-ready queue depth  [default: queue/2]
    --deadline-ms <n>   default per-request deadline   [default: 2000]
    --breaker-threshold <n>    consecutive primary failures that trip
                               a replica's circuit breaker  [default: 5]
    --breaker-cooldown-ms <n>  cooldown before a half-open probe
                               [default: 5000]
    --reload-drain-ms <n>      rolling reload: max wait for one replica
                               to drain before aborting  [default: 5000]
    --shed-jitter-seed <n>     seed for the jittered Retry-After on shed
                               503 responses          [default: 24301]
    --quiet             suppress per-request log lines on stderr

TEST HOOKS (fault injection, mirroring `wlc cv --force-diverge`):
    --slow-ms <n>       artificial per-request service time
    --force-fail <n>    fail the first n primary predictions

ENDPOINTS:
    POST /predict {\"inputs\":[...],\"deadline_ms\":n?}   prediction
    GET  /healthz | /readyz | /stats                   probes (per-replica)
    POST /reload {\"path\":\"model.txt\"}                 rolling hot swap,
                                                       one replica at a time
    POST /replica {\"replica\":n,\"action\":\"kill\"}       admin/test hook
    POST /shutdown                                     graceful drain

Prints `listening on <addr>` on stdout once ready. Exits 0 after a
graceful shutdown, 5 on server errors.";

/// Assembles the serving bundle from `--model` / `--baseline` / `--data`.
fn build_bundle(flags: &Flags) -> Result<FallbackModel, Box<dyn std::error::Error>> {
    let model_path: String = flags.get_or("model", String::new())?;
    let baseline_path: String = flags.get_or("baseline", String::new())?;
    let data_path: String = flags.get_or("data", String::new())?;

    let mut names: Option<(Vec<String>, Vec<String>)> = None;
    let baseline = if !baseline_path.is_empty() {
        Some(LinearModel::load(&baseline_path)?)
    } else if !data_path.is_empty() {
        let features = match flags
            .get_or("features", "first-order".to_string())?
            .as_str()
        {
            "first-order" => LinearFeatures::FirstOrder,
            "interactions" => LinearFeatures::Interactions,
            "quadratic" => LinearFeatures::Quadratic,
            other => return Err(format!("unknown --features `{other}`").into()),
        };
        let dataset = super::train::load_validated(flags, &data_path)?;
        names = Some((
            dataset.input_names().to_vec(),
            dataset.output_names().to_vec(),
        ));
        eprintln!("fitted linear baseline on {dataset}");
        Some(LinearModel::fit(&dataset, features)?)
    } else {
        None
    };

    let primary = if model_path.is_empty() {
        None
    } else {
        let loaded = WorkloadModel::load(&model_path).and_then(|m| {
            let expected = baseline.as_ref().map(|b| (b.inputs(), b.outputs()));
            m.validate(expected)?;
            Ok(m)
        });
        match loaded {
            Ok(model) => Some(model),
            // An unusable MLP degrades to the baseline when one exists;
            // without one there is nothing to serve, so fail loudly.
            Err(err) if baseline.is_some() => {
                eprintln!(
                    "warning: primary model `{model_path}` unusable ({err}); \
                     serving the linear baseline in degraded mode"
                );
                None
            }
            Err(err) => return Err(Box::new(err)),
        }
    };

    let (input_names, output_names) = names.unwrap_or_default();
    FallbackModel::new(primary, baseline, input_names, output_names).map_err(|_| {
        Box::from(ServeError::InvalidParameter {
            name: "model",
            reason: "need --model, --baseline or --data to have something to serve",
        })
    })
}

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let bundle = build_bundle(&flags)?;

    let config = ServeConfig {
        replicas: flags.get_or("replicas", 1usize)?,
        workers: flags.get_or("workers", 4usize)?,
        queue_capacity: flags.get_or("queue", 64usize)?,
        ready_watermark: flags.get_or("watermark", 0usize)?,
        default_deadline: Duration::from_millis(flags.get_or("deadline-ms", 2000u64)?),
        breaker_threshold: flags.get_or("breaker-threshold", 5u32)?,
        breaker_cooldown: Duration::from_millis(flags.get_or("breaker-cooldown-ms", 5000u64)?),
        reload_drain_timeout: Duration::from_millis(flags.get_or("reload-drain-ms", 5000u64)?),
        slow_per_request: Duration::from_millis(flags.get_or("slow-ms", 0u64)?),
        force_fail: flags.get_or("force-fail", 0u64)?,
        shed_jitter_seed: flags.get_or("shed-jitter-seed", 0x5eedu64)?,
        band_jobs: flags.get_or("band-jobs", 1usize)?,
        fs: wlc_fault::real_fs(),
        log: !flags.switch("quiet"),
    };
    let addr: String = flags.get_or("addr", "127.0.0.1:0".to_string())?;

    let server = Server::bind(&addr, bundle, config)?;
    // Machine-parseable startup line (CI and scripts read the port).
    println!("listening on {}", server.local_addr());
    let stats = server.run()?;
    // The drain has happened; a reader that went away after the startup
    // line costs the summary line, not the exit status.
    let _ = writeln!(
        std::io::stdout().lock(),
        "server drained: handled={} shed={} degraded={} deadline_missed={}",
        stats.handled,
        stats.shed,
        stats.degraded,
        stats.deadline_missed
    );
    Ok(())
}
