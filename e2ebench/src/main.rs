//! End-to-end benchmark of the wlc workspace.
//!
//! One invocation runs one workload in a fresh process and prints its
//! result as the last stdout line. Untraced runs (`--trace 0`) report
//! the end-to-end metrics; traced runs (`--trace 1`) wrap spans around
//! the benchmark's calls into each layer's public API and report the
//! per-layer metrics. See `README.md` beside this crate for the
//! workloads and the per-layer → end-to-end map.

#![forbid(unsafe_code)]

mod characterize;
mod host;
mod learn;
mod load;
mod repeat;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Report, Tally, PER_LAYER};
use trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const USAGE: &str = "\
usage: e2ebench --workload <serve_single|serve_batch|characterize|learn_rounds>
                --seed <u64> --seconds <n> --trace <0|1> --wlc <path> --out <dir>";

/// What every workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    pub traced: bool,
    /// Worker, sender and pool size: the machine's available cores.
    pub jobs: usize,
    /// The `wlc` binary under test.
    pub wlc: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Where traced runs leave their span logs.
    pub out: PathBuf,
    pub workload: String,
}

fn parse(raw: &[String]) -> Result<Ctx, String> {
    let value = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?.to_string();
    if ![
        "serve_single",
        "serve_batch",
        "characterize",
        "learn_rounds",
    ]
    .contains(&workload.as_str())
    {
        return Err(format!("unknown workload `{workload}`"));
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let out = PathBuf::from(value("--out")?);
    let seed = number("--seed")?;
    Ok(Ctx {
        work: out.join(format!("{workload}-{}", std::process::id())),
        seed,
        seconds: seconds as f64,
        traced,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        wlc: PathBuf::from(value("--wlc")?),
        out,
        workload,
    })
}

/// Writes a traced run's spans once the run is over.
pub fn write_trace(ctx: &Ctx, tracer: &Tracer) -> Res<()> {
    let path = ctx
        .out
        .join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
    trace::write_jsonl(&tracer.spans(), &path)?;
    eprintln!("e2ebench: spans written to {}", path.display());
    Ok(())
}

fn run(ctx: &Ctx) -> Res<String> {
    if !ctx.wlc.is_file() {
        return Err(format!("wlc binary not found at {}", ctx.wlc.display()).into());
    }
    std::fs::create_dir_all(&ctx.work)?;
    let ticks0 = host::cpu_ticks();
    let timewait = host::timewait_sockets();
    let mut report = Report::default();
    let tally = Tally::default();
    match ctx.workload.as_str() {
        "serve_single" => serving::run(ctx, serving::Shape::Single, &mut report, &tally)?,
        "serve_batch" => serving::run(ctx, serving::Shape::Batch, &mut report, &tally)?,
        "characterize" => characterize::run(ctx, &mut report, &tally)?,
        _ => learn::run(ctx, &mut report, &tally)?,
    }
    report
        .diagnostics
        .insert("host.steal_pct", host::steal_pct(ticks0, host::cpu_ticks()));
    report
        .diagnostics
        .insert("host.timewait_sockets", timewait as f64);
    if ctx.traced {
        // Traced runs report the host readings as per-layer metrics too.
        let readings: Vec<(&'static str, f64)> = report
            .diagnostics
            .iter()
            .filter(|(k, _)| PER_LAYER.iter().any(|(name, _)| name == *k))
            .map(|(&k, &v)| (k, v))
            .collect();
        for (k, v) in readings {
            report.values.entry(k).or_insert(v);
        }
    }
    for (name, value) in &report.values {
        eprintln!("  {name:<26} {value:.4}");
    }
    println!("{}", report.diagnostics_json());
    Ok(report.to_json(&tally, ctx.traced)?)
}

/// Removes the run's scratch directory however the run ends.
struct Cleanup<'a>(&'a Path);

impl Drop for Cleanup<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&raw) {
        Ok(ctx) => ctx,
        Err(err) => {
            eprintln!("e2ebench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _cleanup = Cleanup(&ctx.work);
    match run(&ctx) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("e2ebench: {} failed: {err}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
