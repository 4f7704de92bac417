//! Operation tallies, the metric catalogue and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{host, stats};

/// End-to-end metrics `(name, unit)`, reported with tracing off. They
/// are CPU-time and memory measures: wall-clock figures on a shared
/// host mostly measure the neighbours, so they are per-layer readings.
/// Throughput is also normalized to the host's speed during the run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_norm_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.latency_p50_ms", "ms"),
    ("wall.throughput_per_s", "1/s"),
    ("serve.rtt_us", "us"),
    ("serve.floor_rtt_us", "us"),
    ("serve.body_us", "us"),
    ("serve.floor_share_pct", "%"),
    ("serve.body_share_pct", "%"),
    ("serve.decode_us", "us"),
    ("serve.encode_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("model.predict_us", "us"),
    ("serve.handoff_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.server_cpu_us", "us"),
    ("serve.client_cpu_us", "us"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.latency_tail_ms", "ms"),
    ("serve.latency_tail_pct", "%"),
    ("serve.latency_samples", "count"),
    ("load.late_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.deadline_missed", "count"),
    ("data.design_ms", "ms"),
    ("data.csv_ms", "ms"),
    ("sim.run_design_ms", "ms"),
    ("exec.sim_speedup", "x"),
    ("sim.transaction_ns", "ns"),
    ("model.train_ms", "ms"),
    ("nn.epoch_us", "us"),
    ("model.cv_ms", "ms"),
    ("model.cv_error_pct", "%"),
    ("model.surface_ms", "ms"),
    ("model.surface_points", "count"),
    ("nn.forward_rows_per_s", "1/s"),
    ("nn.gradient_rows_per_s", "1/s"),
    ("math.gemm_flop_per_epoch", "flop"),
    ("learn.round_ms", "ms"),
    ("learn.promotions", "count"),
    ("learn.rollbacks", "count"),
    ("learn.quarantined", "count"),
    ("learn.retrain_epochs", "count"),
    ("sim.stream_window_ms", "ms"),
    ("model.retrain_ms", "ms"),
    ("fault.write_atomic_ms", "ms"),
    ("serve.reload_ms", "ms"),
    ("proc.cpu_s_per_op", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("host.reference_ms", "ms"),
    ("host.steal_pct", "%"),
    ("host.timewait_sockets", "count"),
];

/// How one checked operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Completed with the expected output.
    Ok,
    /// Did not complete: error status, connect or protocol failure.
    Failed,
    /// Completed with an output that differs from the expected one.
    Wrong,
}

/// Attempted / failed / wrong counts shared by every sender thread.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    wrong: AtomicU64,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn count(&self, check: Check) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match check {
            Check::Ok => return true,
            Check::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
            Check::Wrong => self.wrong.fetch_add(1, Ordering::Relaxed),
        };
        false
    }
}

/// One workload run's result.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    /// Host-noise readings printed beside the result, never folded in.
    pub diagnostics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets the end-to-end metrics of an untraced run: `units` of work
    /// done in `cpu_s` CPU seconds, and set-ups costing `setup_cpu` CPU
    /// seconds each. Both are normalized to the host's speed, read from
    /// the reference loop runs interleaved with the work (see
    /// `host::REFERENCE_S`): `reference_s[i]` and `reference_s[i + 1]`
    /// bracket set-up `i`, and the median of all of them scales the
    /// throughput. The raw figures go on the diagnostics line.
    pub fn set_end_to_end(
        &mut self,
        units: f64,
        cpu_s: f64,
        setup_cpu: &[f64],
        reference_s: &[f64],
        peak_rss_mb: f64,
    ) {
        let raw = units / cpu_s.max(1e-12);
        let speed = stats::median(reference_s) / host::REFERENCE_S;
        let setups: Vec<f64> = setup_cpu
            .iter()
            .zip(reference_s.windows(2))
            .map(|(cpu, around)| cpu * 2.0 * host::REFERENCE_S / (around[0] + around[1]))
            .collect();
        self.set("throughput_per_norm_cpu_s", raw * speed);
        self.set("setup_s", stats::median(&setups));
        self.set("peak_rss_mb", peak_rss_mb);
        self.diagnostics.insert("throughput_per_cpu_s", raw);
        self.diagnostics
            .insert("setup_cpu_s", stats::median(setup_cpu));
    }

    /// The result line: every metric of the mode's catalogue. An
    /// end-to-end metric the workload failed to produce is an error;
    /// a per-layer metric of a layer the workload never calls reads 0.
    pub fn to_json(&self, tally: &Tally, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let failed = tally.failed.load(Ordering::Relaxed) + tally.wrong.load(Ordering::Relaxed);
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
            tally.wrong.load(Ordering::Relaxed) == 0,
            tally.attempted.load(Ordering::Relaxed),
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("workload produced no `{name}`")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// The diagnostics line printed before the result.
    pub fn diagnostics_json(&self) -> String {
        let fields: Vec<String> = self
            .diagnostics
            .iter()
            .map(|(k, &v)| format!("\"{k}\": {}", number(v)))
            .collect();
        format!("{{\"diagnostics\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number with every digit of the measurement. JSON has no
/// infinity: a figure made infinite by failures prints as `f64::MAX`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlc::serve::Json;

    fn catalogue(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(catalogue("end_to_end"), owned(END_TO_END));
        assert_eq!(catalogue("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_counts_wrong_outputs_as_failed_and_incorrect() {
        let tally = Tally::default();
        tally.count(Check::Ok);
        tally.count(Check::Failed);
        assert!(!tally.count(Check::Wrong));
        let mut report = Report::default();
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.set("setup_s", f64::INFINITY);
        let line = report.to_json(&tally, false).unwrap();
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(json.get("failed").and_then(Json::as_f64), Some(2.0));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(f64::MAX));
    }

    #[test]
    fn end_to_end_figures_are_normalized_to_the_reference_speed() {
        let mut report = Report::default();
        let nominal = host::REFERENCE_S;
        // The host ran the reference loop at half speed throughout: the
        // same CPU time counts as half the work on a nominal host.
        report.set_end_to_end(
            100.0,
            2.0,
            &[1.0, 3.0],
            &[2.0 * nominal, 2.0 * nominal, 2.0 * nominal],
            5.0,
        );
        assert_eq!(report.values["throughput_per_norm_cpu_s"], 100.0);
        assert_eq!(report.values["setup_s"], 0.5);
        assert_eq!(report.diagnostics["throughput_per_cpu_s"], 50.0);
        assert_eq!(report.diagnostics["setup_cpu_s"], 1.0);
        // Each set-up is scaled by the two reference runs around it.
        report.set_end_to_end(1.0, 1.0, &[1.0], &[nominal, 3.0 * nominal], 5.0);
        assert_eq!(report.values["setup_s"], 0.5);
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_layers_default_to_zero() {
        let tally = Tally::default();
        tally.count(Check::Ok);
        let report = Report::default();
        assert!(report.to_json(&tally, false).is_err());
        let line = report.to_json(&tally, true).unwrap();
        assert!(Json::parse(&line).is_ok());
    }
}
