//! `wlc learn` — run the continuous-learning supervisor.

use std::io::Write as _;
use std::path::PathBuf;

use wlc_learn::{LearnConfig, Supervisor};
use wlc_sim::{DriftProfile, FaultProfile};

use super::{parse_flags, usage, CmdResult};

const USAGE: &str = "\
wlc learn — continuous-learning supervisor: stream, retrain, shadow,
promote (with watchdog-guarded rollback)

STATE:
    --state-dir <path>  durable state directory         (required)
    --seed <u64>        root seed for every draw        [default: 0]
    --rounds <u64>      rounds to run or resume to      [default: 3]

STREAM:
    --window <n>        stream ticks ingested per round [default: 6]
    --buffer-cap <n>    rolling sample-buffer capacity  [default: 48]
    --bootstrap-ticks <n>  bootstrap/reference window   [default: 10]
    --drift-profile <spec>  workload drift, e.g.
                  kind=ramp,rate=0.02 | kind=rotate,period=5
                  | kind=switch,at=12            [default: steady]
    --fault-profile <spec>  measurement faults (same spec as
                  `wlc collect --fault-profile`) [default: none]
    --duration <f64>    simulated seconds per tick      [default: 3]
    --warmup <f64>      warmup seconds per tick         [default: 0.5]
    --retries <usize>   retries before a tick is quarantined [default: 2]
    --jobs <usize>      stream workers (never changes output)
                                           [default: available cores]

RETRAIN + SHADOW:
    --epochs <n>        retraining epochs per round     [default: 400]
    --checkpoint-every <n>  checkpoint interval (0 = epochs/4) [default: 0]
    --hidden <list>     hidden-layer widths, e.g. 8,4   [default: 8]
    --learning-rate <f64>                               [default: 0.05]
    --batch-size <n>                                    [default: 16]
    --holdout <n>       recent samples held out for shadow scoring
                                                        [default: 4]
    --margin <f64>      candidate must beat live by this fraction on
                        the recent holdout              [default: 0]
    --tolerance <f64>   allowed regression vs live on the reference
                        window                          [default: 0.25]

PROMOTE + PROBATION:
    --probes <n>        probation probes after a promotion [default: 6]
    --watchdog <f64>    roll back when the probe degraded/error rate
                        exceeds this fraction           [default: 0.5]
    --replicas <n>      in-process serving replicas     [default: 2]
    --workers <n>       worker threads per replica      [default: 2]
    --queue <n>         per-replica queue capacity      [default: 16]
    --quiet             suppress live event lines on stdout

CHAOS HOOKS (test/CI fault injection, mirroring --force-fail):
    --chaos-kill-round <r>     die mid-retrain in round r, right after
                               the first checkpoint; rerun to resume
    --chaos-corrupt-round <r>  corrupt round r's candidate artifact so
                               the fleet must reject it
    --force-bad-round <r>      force round r's probation probes to fail,
                               driving a watchdog rollback

The supervisor is resumable: rerunning with the same --state-dir picks
up after the last committed round and reproduces the exact bytes an
uninterrupted run would have written (state, models, events.log).
Exits 0 on success, 1 on failure (including a chaos kill), 2 on bad
usage, 3 when a profile or config value fails validation, 4 when
retraining diverges, 5 on serving errors.";

pub fn run(raw: &[String]) -> CmdResult {
    if raw.is_empty() {
        return usage(USAGE);
    }
    let flags = parse_flags(raw, USAGE)?;
    let state_dir: PathBuf = PathBuf::from(flags.required("state-dir")?);

    // Parsed by hand (not `get_or`) so a bad spec surfaces the typed
    // `SimError` and its validation exit code.
    let drift: DriftProfile = flags
        .get_or("drift-profile", String::new())?
        .parse::<DriftProfile>()?;
    let faults: FaultProfile = flags
        .get_or("fault-profile", String::new())?
        .parse::<FaultProfile>()?;
    let hidden: Vec<usize> = flags.get_list("hidden")?.unwrap_or_else(|| vec![8]);

    let chaos_kill_round: Option<u64> = flags.get_list("chaos-kill-round")?.map(first_round);
    let chaos_corrupt_candidate_round: Option<u64> =
        flags.get_list("chaos-corrupt-round")?.map(first_round);
    let force_bad_round: Option<u64> = flags.get_list("force-bad-round")?.map(first_round);

    let config = LearnConfig {
        state_dir,
        seed: flags.get_or("seed", 0u64)?,
        rounds: flags.get_or("rounds", 3u64)?,
        window: flags.get_or("window", 6usize)?,
        buffer_cap: flags.get_or("buffer-cap", 48usize)?,
        holdout: flags.get_or("holdout", 4usize)?,
        bootstrap_ticks: flags.get_or("bootstrap-ticks", 10usize)?,
        drift,
        faults,
        duration_secs: flags.get_or("duration", 3.0f64)?,
        warmup_secs: flags.get_or("warmup", 0.5f64)?,
        stream_retries: flags.get_or("retries", 2usize)?,
        jobs: flags.get_or("jobs", wlc_exec::default_jobs())?.max(1),
        epochs: flags.get_or("epochs", 400usize)?,
        checkpoint_every: flags.get_or("checkpoint-every", 0usize)?,
        hidden,
        learning_rate: flags.get_or("learning-rate", 0.05f64)?,
        batch_size: flags.get_or("batch-size", 16usize)?,
        margin: flags.get_or("margin", 0.0f64)?,
        tolerance: flags.get_or("tolerance", 0.25f64)?,
        probes: flags.get_or("probes", 6usize)?,
        watchdog: flags.get_or("watchdog", 0.5f64)?,
        replicas: flags.get_or("replicas", 2usize)?,
        workers: flags.get_or("workers", 2usize)?,
        queue_capacity: flags.get_or("queue", 16usize)?,
        force_bad_round,
        chaos_kill_round,
        chaos_corrupt_candidate_round,
        fs: wlc_fault::real_fs(),
        quiet: flags.switch("quiet"),
    };

    let supervisor = Supervisor::new(config)?;
    let outcome = supervisor.run()?;
    // The rounds are committed; a reader that went away costs the
    // summary line, not the exit status.
    let _ = writeln!(
        std::io::stdout().lock(),
        "supervisor done: rounds={} generation={} promotions={} rollbacks={} quarantined={} live={}",
        outcome.rounds,
        outcome.generation,
        outcome.promotions,
        outcome.rollbacks,
        outcome.quarantined,
        outcome.live
    );
    Ok(())
}

/// `get_list` parses single-value flags too; take the first entry.
fn first_round(values: Vec<u64>) -> u64 {
    values.into_iter().next().unwrap_or(0)
}
