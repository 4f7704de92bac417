//! `wlc predict` — predict indicators for a configuration, either with
//! a saved model file or against a running `wlc serve` instance.

use wlc_model::{PerformanceModel, WorkloadModel};
use wlc_serve::{ClientConfig, Json, ServeClient};

use crate::args::Flags;

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc predict — predict performance indicators with a saved model

LOCAL MODE:
    --model <path>     model file (from `wlc train`)               (required)
    --config <list>    configuration values, e.g. 560,10,16,12     (required)

SERVER MODE (against a running `wlc serve`):
    --server <ip:port>  server address (replaces --model)
    --config <list>     configuration values
    --deadline-ms <n>   per-request deadline
    --retries <n>       max attempts; retriable failures (503 shed,
                        504 deadline, connect errors) back off
                        exponentially with jitter      [default: 5]
    --status            print health/readiness/stats and exit
    --reload <path>     rolling hot reload of the server's model file
                        (drains and swaps one replica at a time), exit
    --kill-replica <n>  take replica n out of rotation and exit
    --revive-replica <n>  bring a killed replica back and exit
    --shutdown          gracefully stop the server and exit

Exits 3 when the server rejects the request as invalid (400), 5 on
server/transport errors.";

fn client_for(flags: &Flags, addr: &str) -> Result<ServeClient, Box<dyn std::error::Error>> {
    let config = ClientConfig {
        max_attempts: flags.get_or("retries", 5usize)?,
        ..ClientConfig::default()
    };
    Ok(ServeClient::new(addr, config))
}

fn print_json_fields(label: &str, json: &Json) {
    match json {
        Json::Obj(map) => {
            println!("{label}:");
            for (key, value) in map {
                println!("  {key:<24} {value}");
            }
        }
        other => println!("{label}: {other}"),
    }
}

fn server_mode(flags: &Flags, addr: &str) -> CmdResult {
    let client = client_for(flags, addr)?;
    if flags.switch("status") {
        print_json_fields("health", &client.healthz()?);
        match client.readyz() {
            Ok(json) => print_json_fields("readiness", &json),
            Err(err) if !err.is_retriable() => return Err(Box::new(err)),
            // A 503 from /readyz is an answer, not a failure.
            Err(_) => println!("readiness:\n  ready                    false"),
        }
        print_json_fields("stats", &client.stats()?);
        return Ok(());
    }
    let reload: String = flags.get_or("reload", String::new())?;
    if !reload.is_empty() {
        let outcome = client.reload_detailed(&reload)?;
        println!("reloaded: generation {}", outcome.generation);
        for (id, generation) in outcome.generations.iter().enumerate() {
            println!("  replica {id:<16} generation {generation}");
        }
        return Ok(());
    }
    let kill: String = flags.get_or("kill-replica", String::new())?;
    if !kill.is_empty() {
        let id: usize = kill.parse()?;
        client.kill_replica(id)?;
        println!("replica {id} killed");
        return Ok(());
    }
    let revive: String = flags.get_or("revive-replica", String::new())?;
    if !revive.is_empty() {
        let id: usize = revive.parse()?;
        client.revive_replica(id)?;
        println!("replica {id} revived");
        return Ok(());
    }
    if flags.switch("shutdown") {
        client.shutdown()?;
        println!("server shutting down");
        return Ok(());
    }

    let config = flags
        .get_list::<f64>("config")?
        .ok_or("missing required flag `--config`")?;
    let deadline = match flags.get_or("deadline-ms", 0u64)? {
        0 => None,
        ms => Some(ms),
    };
    let prediction = client.predict_with_deadline(&config, deadline)?;
    println!(
        "predicted indicators (model: {}, generation {}{}):",
        prediction.model,
        prediction.generation,
        if prediction.degraded {
            ", DEGRADED"
        } else {
            ""
        }
    );
    for (i, v) in prediction.outputs.iter().enumerate() {
        let name = prediction
            .output_names
            .get(i)
            .map(String::as_str)
            .unwrap_or("output");
        println!("  {name:<24} {v:.6}");
    }
    Ok(())
}

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let server: String = flags.get_or("server", String::new())?;
    if !server.is_empty() {
        return server_mode(&flags, &server);
    }
    let model = WorkloadModel::load(flags.required("model")?)?;
    let config = flags
        .get_list::<f64>("config")?
        .ok_or("missing required flag `--config`")?;

    let prediction = model.predict(&config)?;
    println!("configuration:");
    for (name, v) in model.input_names().iter().zip(&config) {
        println!("  {name:<24} {v}");
    }
    println!("predicted indicators:");
    for (name, v) in model.output_names().iter().zip(&prediction) {
        println!("  {name:<24} {v:.6}");
    }
    Ok(())
}
