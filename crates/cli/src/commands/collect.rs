//! `wlc collect` — simulate a Latin-hypercube design and save a CSV
//! dataset.

use std::time::Instant;

use wlc_data::design::{latin_hypercube, round_to_integers, ParamRange};
use wlc_math::rng::Seed;
use wlc_sim::{run_design_faulty_jobs, run_design_replicated_jobs, FaultProfile, ServerConfig};

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc collect — simulate a Latin-hypercube design, write a CSV dataset

FLAGS:
    --samples <usize>  number of configurations           (required)
    --out <path>       output CSV file                    (required)
    --seed <u64>       design + simulation seed           [default: 0]
    --rate <lo:hi>     injection-rate range               [default: 350:620]
    --default <lo:hi>  default-thread range               [default: 5:20]
    --mfg <lo:hi>      mfg-thread range                   [default: 10:24]
    --web <lo:hi>      web-thread range                   [default: 5:20]
    --duration <f64>   simulated seconds per run          [default: 20]
    --warmup <f64>     warmup seconds per run             [default: 4]
    --replications <u32>  runs averaged per configuration [default: 1]
    --jobs <usize>     simulation worker threads  [default: available cores]
    --fault-profile <spec>  inject measurement faults, e.g.
                  dropout=0.1,spike=0.05,spike_scale=0.5,truncate=0.1,
                  truncate_frac=0.5,stall=0.02      [default: none]
    --retries <usize>  re-runs of a dropped/stalled sample [default: 0]

Results are bit-identical for any --jobs value: every run's seed is
derived from its position in the design, not from scheduling order.
--fault-profile cannot be combined with --replications > 1; samples that
fail every retry are quarantined (omitted from the CSV).";

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let samples: usize = flags.get_required("samples")?;
    let out = flags.required("out")?.to_string();
    let seed: u64 = flags.get_or("seed", 0)?;

    let (rate_lo, rate_hi) = flags.get_range("rate", (350.0, 620.0))?;
    let (def_lo, def_hi) = flags.get_range("default", (5.0, 20.0))?;
    let (mfg_lo, mfg_hi) = flags.get_range("mfg", (10.0, 24.0))?;
    let (web_lo, web_hi) = flags.get_range("web", (5.0, 20.0))?;

    let ranges = [
        ParamRange::new(rate_lo, rate_hi)?,
        ParamRange::new(def_lo, def_hi)?,
        ParamRange::new(mfg_lo, mfg_hi)?,
        ParamRange::new(web_lo, web_hi)?,
    ];
    let mut points = latin_hypercube(&ranges, samples, Seed::new(seed))?;
    for p in &mut points {
        let rate = p[0];
        round_to_integers(std::slice::from_mut(p));
        p[0] = rate;
    }
    let configs: Vec<ServerConfig> = points
        .iter()
        .map(|p| ServerConfig::from_vector(p))
        .collect::<Result<_, _>>()?;

    let jobs: usize = flags.get_or("jobs", wlc_exec::default_jobs())?.max(1);
    let duration: f64 = flags.get_or("duration", 20.0)?;
    let warmup: f64 = flags.get_or("warmup", 4.0)?;
    let replications: u32 = flags.get_or("replications", 1u32)?;
    // Parsed by hand (not `get_or`) so a bad spec surfaces the typed
    // `SimError::InvalidFaultProfile` and its validation exit code.
    let profile: FaultProfile = flags
        .get_or("fault-profile", String::new())?
        .parse::<FaultProfile>()?;
    let retries: usize = flags.get_or("retries", 0)?;

    eprintln!("simulating {samples} configurations on {jobs} worker(s)...");
    let started = Instant::now();
    if replications > 1 && !profile.is_none() {
        return Err("--fault-profile cannot be combined with --replications > 1".into());
    }
    // One run per configuration always takes the faulty path, so a
    // profile that fires no fault writes the clean campaign's rows.
    let dataset = if replications == 1 {
        let (ds, faults) = run_design_faulty_jobs(
            &configs,
            seed.wrapping_add(1),
            duration,
            warmup,
            profile,
            retries,
            jobs,
        )?;
        if !profile.is_none() {
            eprintln!("fault injection: {faults}");
            for q in &faults.quarantined {
                eprintln!("  configuration {q} quarantined (all attempts failed)");
            }
        }
        ds
    } else {
        run_design_replicated_jobs(
            &configs,
            seed.wrapping_add(1),
            duration,
            warmup,
            replications,
            jobs,
        )?
    };
    eprintln!(
        "simulated on {jobs} worker(s) in {:.3}s",
        started.elapsed().as_secs_f64()
    );
    dataset.save_csv(&out)?;
    println!("wrote {} samples to {out}", dataset.len());
    for summary in dataset.column_summaries() {
        println!(
            "  {:<24} min {:>10.4}  mean {:>10.4}  max {:>10.4}  std {:>9.4}",
            summary.name, summary.min, summary.mean, summary.max, summary.std_dev
        );
    }
    Ok(())
}
