//! Determinism of parallel dataset collection: the dataset must be
//! bit-for-bit identical for any worker count, because every run's seed
//! is derived from its design index, never from scheduling order.

use wlc_sim::{run_design_jobs, run_design_replicated_jobs, ServerConfig, OUTPUT_NAMES};

fn design(n: usize) -> Vec<ServerConfig> {
    (0..n)
        .map(|i| {
            ServerConfig::builder()
                .injection_rate(150.0 + 40.0 * (i % 7) as f64)
                .default_threads(5 + (i % 4) as u32)
                .mfg_threads(12)
                .web_threads(5 + (i / 4) as u32 % 8)
                .build()
                .unwrap()
        })
        .collect()
}

#[test]
fn run_design_is_bit_identical_across_job_counts() {
    let configs = design(9);
    let serial = run_design_jobs(&configs, 42, 2.0, 0.5, 1).unwrap();
    for jobs in [2, 4, 8] {
        let parallel = run_design_jobs(&configs, 42, 2.0, 0.5, jobs).unwrap();
        assert_eq!(serial, parallel, "jobs=1 vs jobs={jobs}");
    }
}

#[test]
fn run_design_replicated_is_bit_identical_across_job_counts() {
    let configs = design(6);
    let serial = run_design_replicated_jobs(&configs, 7, 2.0, 0.5, 3, 1).unwrap();
    let parallel = run_design_replicated_jobs(&configs, 7, 2.0, 0.5, 3, 4).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(parallel.len(), configs.len());
}

#[test]
fn dataset_rows_follow_design_order() {
    let configs = design(5);
    let ds = run_design_jobs(&configs, 1, 2.0, 0.5, 2).unwrap();
    assert_eq!(ds.len(), 5);
    assert_eq!(ds.output_width(), OUTPUT_NAMES.len());
    for (sample, config) in ds.samples().iter().zip(&configs) {
        assert_eq!(sample.x(), config.as_vector());
    }
}

#[test]
fn failing_run_surfaces_error_not_hang() {
    // duration <= 0 makes every run fail; the parallel path must return
    // the error (the lowest-index one, same as sequential) promptly.
    let configs = design(6);
    let serial = run_design_jobs(&configs, 1, 0.0, 0.0, 1).unwrap_err();
    let parallel = run_design_jobs(&configs, 1, 0.0, 0.0, 4).unwrap_err();
    assert_eq!(format!("{serial}"), format!("{parallel}"));
}
