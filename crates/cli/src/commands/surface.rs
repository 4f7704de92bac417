//! `wlc surface` — evaluate and classify a response surface of a saved
//! model (the paper's 3-D diagrams and shape taxonomy).

use std::time::Instant;

use wlc_model::classify::classify;
use wlc_model::report::ascii_heatmap;
use wlc_model::{ResponseSurface, WorkloadModel};
use wlc_nn::BandEngine;

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc surface — evaluate + classify a response surface of a saved model

FLAGS:
    --model <path>      model file (from `wlc train`)               (required)
    --base <list>       full configuration, e.g. 560,10,16,10       (required)
    --indicator <usize> output index to plot (0-based)              [default: 0]
    --axis1 <usize>     first swept input index                     [default: 1]
    --axis2 <usize>     second swept input index                    [default: 3]
    --range1 <lo:hi>    sweep range of axis1                        [default: 4:20]
    --range2 <lo:hi>    sweep range of axis2                        [default: 4:20]
    --steps <usize>     grid points per axis                        [default: 9]
    --jobs <usize>      row-band worker threads      [default: available cores]

The whole grid is evaluated as one batched forward pass whose row bands
fan out over a persistent worker team. The grid is bit-identical for
any --jobs value: band geometry and per-element reduction order never
depend on the worker count.";

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let model = WorkloadModel::load(flags.required("model")?)?;
    let base = flags
        .get_list::<f64>("base")?
        .ok_or("missing required flag `--base`")?;
    let output: usize = flags.get_or("indicator", 0)?;
    let axis1: usize = flags.get_or("axis1", 1)?;
    let axis2: usize = flags.get_or("axis2", 3)?;
    let (lo1, hi1) = flags.get_range("range1", (4.0, 20.0))?;
    let (lo2, hi2) = flags.get_range("range2", (4.0, 20.0))?;
    let steps: usize = flags.get_or("steps", 9)?;
    if steps < 3 {
        return Err("`--steps` must be at least 3".into());
    }

    let axis = |lo: f64, hi: f64| -> Vec<f64> {
        (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect()
    };
    let jobs: usize = flags.get_or("jobs", wlc_exec::default_jobs())?;
    let surface = ResponseSurface::new(base, axis1, axis(lo1, hi1), axis2, axis(lo2, hi2), output)?;
    let mut engine = BandEngine::new(jobs);
    let started = Instant::now();
    let grid = surface.evaluate_banded(&model, &mut engine)?;
    eprintln!(
        "evaluated {} grid points in {:.1} ms (jobs={})",
        steps * steps,
        started.elapsed().as_secs_f64() * 1e3,
        engine.jobs()
    );
    let analysis = classify(&grid);

    let indicator_name = model
        .output_names()
        .get(output)
        .cloned()
        .unwrap_or_else(|| format!("output {output}"));
    let axis_name = |i: usize| {
        model
            .input_names()
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("input {i}"))
    };
    println!(
        "surface of `{indicator_name}` over ({}, {}):",
        axis_name(axis1),
        axis_name(axis2)
    );
    print!("{}", ascii_heatmap(&grid));
    let (i_min, j_min, v_min) = grid.min_cell();
    let (i_max, j_max, v_max) = grid.max_cell();
    println!(
        "min {:.4} at ({}, {}); max {:.4} at ({}, {})",
        v_min,
        grid.axis1_values()[i_min],
        grid.axis2_values()[j_min],
        v_max,
        grid.axis1_values()[i_max],
        grid.axis2_values()[j_max]
    );
    println!("classification: {:?}", analysis.shape);
    println!(
        "  sensitivities: {} {:.3}, {} {:.3}; valley {:.2}, hill {:.2}",
        axis_name(axis1),
        analysis.sensitivity_axis1,
        axis_name(axis2),
        analysis.sensitivity_axis2,
        analysis.valley_score,
        analysis.hill_score
    );
    Ok(())
}
