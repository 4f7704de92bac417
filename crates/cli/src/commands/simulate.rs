//! `wlc simulate` — run the 3-tier simulator for one configuration.

use wlc_sim::{ArrivalProcess, ServerConfig, Simulation, TransactionKind};

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc simulate — run the 3-tier simulator for one configuration

FLAGS:
    --rate <f64>       injection rate in requests/second   (required)
    --default <u32>    default-queue thread count          (required)
    --mfg <u32>        mfg-queue thread count              (required)
    --web <u32>        web-queue thread count              (required)
    --seed <u64>       RNG seed                            [default: 0]
    --duration <f64>   simulated seconds                   [default: 30]
    --warmup <f64>     warmup seconds (discarded)          [default: 5]
    --bursty           use the bursty (MMPP) driver instead of Poisson";

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let config = ServerConfig::builder()
        .injection_rate(flags.get_required("rate")?)
        .default_threads(flags.get_required("default")?)
        .mfg_threads(flags.get_required("mfg")?)
        .web_threads(flags.get_required("web")?)
        .build()?;

    let mut sim = Simulation::new(config)
        .seed(flags.get_or("seed", 0u64)?)
        .duration_secs(flags.get_or("duration", 30.0)?)
        .warmup_secs(flags.get_or("warmup", 5.0)?);
    if flags.switch("bursty") {
        sim = sim.arrivals(ArrivalProcess::bursty());
    }

    let m = sim.run()?;
    println!("{m}");
    println!();
    println!("p95 response times:");
    for kind in TransactionKind::ALL {
        println!(
            "  {:<22} {:>9.2} ms",
            kind.name(),
            m.p95_response_time(kind) * 1e3
        );
    }
    Ok(())
}
