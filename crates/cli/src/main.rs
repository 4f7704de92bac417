//! `wlc` — command-line interface for the workload-characterization
//! toolkit.
//!
//! ```text
//! wlc simulate --rate 560 --default 10 --mfg 16 --web 12
//! wlc collect  --samples 50 --out data.csv
//! wlc train    --data data.csv --out model.txt
//! wlc predict  --model model.txt --config 560,10,16,12
//! wlc cv       --data data.csv --k 5
//! wlc surface  --model model.txt --indicator 4 --base 560,10,16,10
//! wlc serve    --model model.txt --data data.csv --addr 127.0.0.1:0
//! wlc predict  --server 127.0.0.1:4321 --config 560,10,16,12
//! wlc learn    --state-dir learn-state --drift-profile kind=ramp,rate=0.02
//! ```
//!
//! Run `wlc help` (or any subcommand with `--help`-style mistakes) for
//! usage.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::error::Error;
use std::process::ExitCode;

use wlc_data::DataError;
use wlc_learn::LearnError;
use wlc_model::ModelError;
use wlc_nn::NnError;
use wlc_serve::ServeError;
use wlc_sim::SimError;

const USAGE: &str = "\
wlc — non-linear workload characterization (IISWC 2006 reproduction)

USAGE:
    wlc <COMMAND> [--flag value ...]

COMMANDS:
    simulate   Run the 3-tier simulator for one configuration
    collect    Simulate a Latin-hypercube design and write a CSV dataset
    train      Train the MLP workload model on a CSV dataset
    predict    Predict indicators for a configuration with a saved model
    cv         k-fold cross validation on a CSV dataset (paper Table 2)
    surface    Evaluate + classify a response surface of a saved model
    serve      Run the fault-tolerant prediction server (HTTP + JSON)
    learn      Continuous learning: stream, retrain, shadow, promote
    bench      Benchmark the train/predict hot path; track BENCH_nn.json
    help       Show this message

EXIT CODES:
    0 success   1 failure   2 bad usage
    3 input failed validation   4 training diverged   5 serve error
    6 durable storage failed (see the fault-injection docs; retriable
      failures resolve by rerunning — state resumes from the last commit)

Run a command with no flags to see its options.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => commands::simulate::run(rest),
        "collect" => commands::collect::run(rest),
        "train" => commands::train::run(rest),
        "predict" => commands::predict::run(rest),
        "cv" => commands::cv::run(rest),
        "surface" => commands::surface::run(rest),
        "serve" => commands::serve::run(rest),
        "learn" => commands::learn::run(rest),
        "bench" => commands::bench::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exit_code_for(e.as_ref()))
        }
    }
}

/// Generic failure.
const EXIT_FAILURE: u8 = 1;
/// Bad flags or usage.
const EXIT_USAGE: u8 = 2;
/// Input data failed strict validation (bad CSV, bad fault profile).
const EXIT_VALIDATION: u8 = 3;
/// Training diverged (or every cross-validation fold did).
const EXIT_DIVERGED: u8 = 4;
/// Prediction-server failure (bind, transport, retries exhausted).
const EXIT_SERVE: u8 = 5;
/// Durable storage failed at a fault-injection site (write, fsync or
/// rename of committed state, or committed state that cannot be read
/// back). Retriable sites recover by rerunning the same command.
const EXIT_DURABLE: u8 = 6;

/// Maps an error to the documented process exit code by inspecting the
/// concrete type behind the `dyn Error` (including wrapped sources).
fn exit_code_for(e: &(dyn Error + 'static)) -> u8 {
    if e.downcast_ref::<args::ArgError>().is_some() {
        return EXIT_USAGE;
    }
    if let Some(d) = e.downcast_ref::<DataError>() {
        return data_code(d);
    }
    if let Some(s) = e.downcast_ref::<SimError>() {
        return sim_code(s);
    }
    if let Some(n) = e.downcast_ref::<NnError>() {
        return nn_code(n);
    }
    if let Some(m) = e.downcast_ref::<ModelError>() {
        return model_code(m);
    }
    if let Some(s) = e.downcast_ref::<ServeError>() {
        return serve_code(s);
    }
    if let Some(l) = e.downcast_ref::<LearnError>() {
        return learn_code(l);
    }
    EXIT_FAILURE
}

fn data_code(e: &DataError) -> u8 {
    match e {
        DataError::Validation { .. } => EXIT_VALIDATION,
        _ => EXIT_FAILURE,
    }
}

fn sim_code(e: &SimError) -> u8 {
    match e {
        SimError::InvalidFaultProfile { .. } | SimError::InvalidDriftProfile { .. } => {
            EXIT_VALIDATION
        }
        SimError::Data(d) => data_code(d),
        _ => EXIT_FAILURE,
    }
}

fn nn_code(e: &NnError) -> u8 {
    match e {
        NnError::Diverged { .. } => EXIT_DIVERGED,
        _ => EXIT_FAILURE,
    }
}

fn model_code(e: &ModelError) -> u8 {
    match e {
        ModelError::Nn(n) => nn_code(n),
        ModelError::Data(d) => data_code(d),
        ModelError::Sim(s) => sim_code(s),
        ModelError::AllFoldsQuarantined { .. } => EXIT_DIVERGED,
        ModelError::LoadFailed { source, .. } => model_code(source),
        _ => EXIT_FAILURE,
    }
}

fn learn_code(e: &LearnError) -> u8 {
    match e {
        // Bad supervisor configuration reads like a validation problem.
        LearnError::InvalidParameter { .. } => EXIT_VALIDATION,
        // Wrapped errors keep their established codes.
        LearnError::Sim(s) => sim_code(s),
        LearnError::Data(d) => data_code(d),
        LearnError::Model(m) => model_code(m),
        LearnError::Serve(s) => serve_code(s),
        // Storage failed under the supervisor at a named failpoint
        // site; the message carries whether a rerun can recover.
        LearnError::Durable { .. } => EXIT_DURABLE,
        // State corruption and deliberate chaos kills are generic
        // failures; rerunning resumes from the last committed round.
        _ => EXIT_FAILURE,
    }
}

fn serve_code(e: &ServeError) -> u8 {
    match e {
        // Bad flag combinations read like usage problems.
        ServeError::InvalidParameter { .. } => EXIT_USAGE,
        // Model problems keep their established codes (3/4).
        ServeError::Model(m) => model_code(m),
        // A 4xx means the server validated and rejected our input;
        // oversized bodies and header timeouts are the same family
        // seen from the server's own side of the connection.
        ServeError::Rejected { status, .. } if (400..500).contains(status) => EXIT_VALIDATION,
        ServeError::BodyTooLarge { .. } | ServeError::HeaderTimeout { .. } => EXIT_VALIDATION,
        // Durable storage failed while loading or reloading a model.
        ServeError::Durable { .. } => EXIT_DURABLE,
        // Transport-level failures are all "serving errors": could not
        // bind, connection died, peer spoke garbage, retry budget spent,
        // or a 5xx rejection (shed/deadline) that outlived the retries.
        ServeError::Bind { .. }
        | ServeError::Io(_)
        | ServeError::ConnectionClosed
        | ServeError::Protocol(_)
        | ServeError::Rejected { .. }
        | ServeError::RetriesExhausted { .. } => EXIT_SERVE,
        // `ServeError` is #[non_exhaustive]; future variants default to
        // the generic serve failure code.
        _ => EXIT_SERVE,
    }
}
