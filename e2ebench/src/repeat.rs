//! Set-up and measurement loop shared by the in-process workloads
//! (`characterize`, `learn_rounds`): each repeats one checked operation.

use std::time::{Duration, Instant};

use crate::report::{Check, Report, Tally};
use crate::trace::Tracer;
use crate::{host, stats, Ctx, Res};

/// What repeating the operation measured.
pub struct Repeats<T> {
    /// The first warm-up's outputs; every later operation must match.
    pub expected: T,
    /// CPU seconds of each set-up (preparation + warm-up).
    pub setup_cpu_s: Vec<f64>,
    /// Operation latencies (ms) with tracing off; failures infinite.
    pub plain_ms: Vec<f64>,
    /// Operation latencies (ms) with tracing on (traced runs only).
    pub traced_ms: Vec<f64>,
    /// Operations that completed with the expected outputs.
    pub ok: u64,
    /// Process CPU seconds the measured operations took.
    pub cpu_s: f64,
    /// CPU seconds of each host-speed reference run: one before each
    /// set-up, one before the loop and one after each operation.
    pub reference_s: Vec<f64>,
    /// Wall-clock time of the successful operations.
    pub busy: Duration,
}

impl<T> Repeats<T> {
    /// Fills the end-to-end metrics (untraced runs) or the whole-run
    /// per-layer readings (traced runs); `units` is the work one
    /// operation completes (configurations, rounds).
    pub fn report(&self, ctx: &Ctx, units: f64, report: &mut Report) {
        let done = self.ok as f64 * units;
        let wall = done / self.busy.as_secs_f64().max(1e-9);
        report
            .diagnostics
            .insert("wall.latency_p50_ms", stats::median(&self.plain_ms));
        report.diagnostics.insert("wall.throughput_per_s", wall);
        report
            .diagnostics
            .insert("host.reference_ms", stats::median(&self.reference_s) * 1e3);
        if ctx.traced {
            let ops = (self.plain_ms.len() + self.traced_ms.len()) as f64;
            report.set("proc.cpu_s_per_op", self.cpu_s / ops);
            report.set(
                "trace.overhead_pct",
                (stats::median(&self.traced_ms) / stats::median(&self.plain_ms) - 1.0) * 100.0,
            );
        } else {
            report.set_end_to_end(
                done,
                self.cpu_s,
                &self.setup_cpu_s,
                &self.reference_s,
                host::peak_rss_mb("self"),
            );
        }
    }
}

/// Runs `setups` set-ups (`prepare`, then one warm-up operation, timed as
/// the CPU they cost), then repeats the operation until the run's
/// seconds are spent, with a host-speed reference run before each
/// set-up and after each operation. `op(tracer, request)` returns its outputs and its
/// latency. Traced runs alternate traced and untraced operations, so the
/// tracing overhead is measured under the same host conditions.
pub fn repeat<T: PartialEq>(
    ctx: &Ctx,
    tally: &Tally,
    tracer: &Tracer,
    setups: usize,
    mut prepare: impl FnMut() -> Res<()>,
    mut op: impl FnMut(&Tracer, u64) -> Res<(T, Duration)>,
) -> Res<Repeats<T>> {
    let untraced = Tracer::new(false);
    let check = |got: &T, want: &T| tally.count(if got == want { Check::Ok } else { Check::Wrong });

    let mut setup_cpu = Vec::new();
    let mut reference_s = Vec::new();
    let mut expected: Option<T> = None;
    let mut request = 0u64;
    for _ in 0..setups.max(1) {
        reference_s.push(host::reference_cpu_s());
        let cpu0 = host::cpu_seconds("self");
        prepare()?;
        let (out, _) = op(&untraced, request)?;
        setup_cpu.push(host::cpu_seconds("self") - cpu0);
        request += 1;
        match &expected {
            Some(want) => {
                check(&out, want);
            }
            None => expected = Some(out),
        }
    }
    let expected = expected.expect("at least one set-up");

    reference_s.push(host::reference_cpu_s());
    let loop_refs = reference_s.len();
    let cpu0 = host::cpu_seconds("self");
    let started = Instant::now();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut ok = 0u64;
    let mut busy = Duration::ZERO;
    while started.elapsed().as_secs_f64() < ctx.seconds || plain_ms.len() + traced_ms.len() < 2 {
        let trace_this = ctx.traced && request.is_multiple_of(2);
        let latency = match op(if trace_this { tracer } else { &untraced }, request) {
            Ok((out, took)) if check(&out, &expected) => {
                ok += 1;
                busy += took;
                took.as_secs_f64() * 1e3
            }
            Ok(_) => f64::INFINITY,
            Err(err) => {
                eprintln!("{}: operation failed: {err}", ctx.workload);
                tally.count(Check::Failed);
                f64::INFINITY
            }
        };
        if trace_this {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(latency);
        request += 1;
        reference_s.push(host::reference_cpu_s());
    }
    // The reference runs inside the loop are not the operations' cost.
    let loop_reference: f64 = reference_s[loop_refs..].iter().sum();
    Ok(Repeats {
        expected,
        setup_cpu_s: setup_cpu,
        plain_ms,
        traced_ms,
        ok,
        cpu_s: host::cpu_seconds("self") - cpu0 - loop_reference,
        reference_s,
        busy,
    })
}
