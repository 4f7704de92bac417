//! End-to-end tests of the `wlc` binary: every subcommand, driven through
//! a real process. Each test works in its own temp directory, so the
//! tests can run in parallel.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn wlc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wlc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A temp directory private to `test`; the test removes it when it
/// passes.
fn workspace(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wlc-cli-it-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_commands() {
    let out = wlc(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "simulate", "collect", "train", "predict", "cv", "surface", "serve",
    ] {
        assert!(text.contains(cmd), "missing `{cmd}` in help");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = wlc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn subcommand_without_flags_prints_usage() {
    let out = wlc(&["simulate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--rate"));
}

#[test]
fn simulate_prints_measurement() {
    let out = wlc(&[
        "simulate",
        "--rate",
        "300",
        "--default",
        "8",
        "--mfg",
        "12",
        "--web",
        "8",
        "--duration",
        "4",
        "--warmup",
        "1",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("manufacturing"));
    assert!(text.contains("throughput"));
    assert!(text.contains("p95"));
}

#[test]
fn simulate_rejects_bad_flags() {
    let out = wlc(&[
        "simulate",
        "--rate",
        "abc",
        "--default",
        "8",
        "--mfg",
        "8",
        "--web",
        "8",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot parse"));
}

/// Runs `args` and asserts the misspelt `flag` is refused before the
/// command does any work: exit 2, the flag named on stderr, nothing on
/// stdout.
fn assert_refuses_misspelt_flag(args: &[&str], flag: &str) {
    let out = wlc(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(
        err.contains(&format!("unknown flag `{flag}`")),
        "{args:?}: {err}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: {}", stdout(&out));
}

#[test]
fn simulate_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &[
            "simulate",
            "--rate",
            "100",
            "--default",
            "4",
            "--mfg",
            "4",
            "--web",
            "4",
            "--duraton",
            "2",
            "--duration",
            "1",
            "--warmup",
            "0.5",
        ],
        "--duraton",
    );
}

#[test]
fn collect_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &[
            "collect",
            "--samples",
            "0",
            "--out",
            "unused.csv",
            "--replication",
            "3",
        ],
        "--replication",
    );
}

#[test]
fn train_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &[
            "train",
            "--data",
            "/nonexistent/d.csv",
            "--out",
            "m.txt",
            "--epoch",
            "5",
        ],
        "--epoch",
    );
}

#[test]
fn predict_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &[
            "predict",
            "--model",
            "/nonexistent/m.txt",
            "--config",
            "1,2,3,4",
            "--stauts",
        ],
        "--stauts",
    );
}

#[test]
fn cv_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &["cv", "--data", "/nonexistent/d.csv", "--folds", "3"],
        "--folds",
    );
}

#[test]
fn surface_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &[
            "surface",
            "--model",
            "/nonexistent/m.txt",
            "--base",
            "1,2,3,4",
            "--step",
            "9",
        ],
        "--step",
    );
}

#[test]
fn serve_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(
        &["serve", "--model", "/nonexistent/m.txt", "--worker", "2"],
        "--worker",
    );
}

#[test]
fn learn_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(&["learn", "--round", "1"], "--round");
}

#[test]
fn bench_refuses_a_misspelt_flag() {
    assert_refuses_misspelt_flag(&["bench", "--jobs", "x", "--quik"], "--quik");
}

#[test]
fn help_flag_prints_the_command_usage_like_no_flags() {
    for command in [
        "simulate", "collect", "train", "predict", "cv", "surface", "serve", "learn", "bench",
    ] {
        let help = wlc(&[command, "--help"]);
        assert_eq!(help.status.code(), Some(2), "{command}: {}", stderr(&help));
        assert!(help.stdout.is_empty(), "{command}");
        assert!(
            stderr(&help).contains(&format!("wlc {command} — ")),
            "{command}"
        );
        if command != "bench" {
            assert_eq!(stderr(&help), stderr(&wlc(&[command])), "{command}");
        }
    }
}

#[test]
fn exit_codes_distinguish_failure_kinds() {
    // Bad usage: unknown command and missing flags are exit 2.
    assert_eq!(wlc(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(wlc(&["train"]).status.code(), Some(2));

    // Strict validation failure is exit 3 with a one-line diagnosis.
    let dir = workspace("exit_codes_distinguish_failure_kinds");
    let bad = dir.join("bad.csv");
    let bad_s = bad.to_str().expect("utf8 path");
    std::fs::write(&bad, "a,y*\n1.0,NaN\n").expect("write csv");
    let out = wlc(&["train", "--data", bad_s, "--out", "/dev/null"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("validation error at line 2"));

    // Repair mode drops the bad row instead (then fails on the now-empty
    // dataset, which is a plain failure, not a validation error).
    let out = wlc(&[
        "train",
        "--data",
        bad_s,
        "--out",
        "/dev/null",
        "--mode",
        "repair",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("dropped"));

    // A bad fault profile is also a validation failure.
    let out = wlc(&[
        "collect",
        "--samples",
        "2",
        "--out",
        "/dev/null",
        "--fault-profile",
        "dropout=7",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cv_quarantines_forced_divergence() {
    let dir = workspace("cv_quarantines_forced_divergence");
    let data = dir.join("cv-faults.csv");
    let data_s = data.to_str().expect("utf8 path");
    let out = wlc(&[
        "collect",
        "--samples",
        "12",
        "--out",
        data_s,
        "--duration",
        "3",
        "--warmup",
        "1",
        "--seed",
        "2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let base = [
        "cv",
        "--data",
        data_s,
        "--k",
        "3",
        "--epochs",
        "200",
        "--hidden",
        "6",
        "--force-diverge",
        "1",
    ];
    // Without quarantine the forced fold aborts the run with exit 4.
    let out = wlc(&base);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(stderr(&out).contains("diverged"));

    // With quarantine the run succeeds and reports the survivors.
    let mut with_q = base.to_vec();
    with_q.push("--quarantine");
    let out = wlc(&with_q);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("fold 2 quarantined"), "{text}");
    assert!(text.contains("aggregating 2 surviving fold(s)"), "{text}");
    assert!(text.contains("Average"));

    // A retry (fresh seed, real learning rate) recovers the fold.
    let mut with_retry = base.to_vec();
    with_retry.extend(["--retries", "1"]);
    let out = wlc(&with_retry);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("quarantined"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collect_with_faults_quarantines_and_stays_deterministic() {
    let dir = workspace("collect_with_faults_quarantines_and_stays_deterministic");
    let a = dir.join("faulty-a.csv");
    let b = dir.join("faulty-b.csv");
    let base = |out_path: &str, jobs: &str| {
        wlc(&[
            "collect",
            "--samples",
            "6",
            "--out",
            out_path,
            "--duration",
            "3",
            "--warmup",
            "1",
            "--seed",
            "4",
            "--fault-profile",
            "dropout=0.5,truncate=0.2,truncate_frac=0.5",
            "--retries",
            "8",
            "--jobs",
            jobs,
        ])
    };
    let out = base(a.to_str().expect("utf8"), "1");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("fault injection:"));
    let out = base(b.to_str().expect("utf8"), "4");
    assert!(out.status.success(), "{}", stderr(&out));
    let csv_a = std::fs::read_to_string(&a).expect("csv a");
    let csv_b = std::fs::read_to_string(&b).expect("csv b");
    assert_eq!(csv_a, csv_b, "faulty collection must not depend on --jobs");

    // Certain dropout with no retries quarantines every sample.
    let empty = dir.join("faulty-empty.csv");
    let out = wlc(&[
        "collect",
        "--samples",
        "3",
        "--out",
        empty.to_str().expect("utf8"),
        "--duration",
        "3",
        "--warmup",
        "1",
        "--fault-profile",
        "dropout=1.0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("wrote 0 samples"));
    assert!(stderr(&out).contains("quarantined"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collect_seeds_a_clean_campaign_like_a_faulty_one() {
    // A profile that fires no fault must write the clean campaign's
    // rows: both paths seed run `i` the same way.
    let dir = workspace("collect_seeds_a_clean_campaign_like_a_faulty_one");
    let collect = |name: &str, profile: &[&str]| {
        let path = dir.join(name);
        let mut args = vec![
            "collect",
            "--samples",
            "6",
            "--seed",
            "4",
            "--duration",
            "3",
            "--warmup",
            "1",
            "--jobs",
            "1",
            "--out",
            path.to_str().expect("utf8"),
        ];
        args.extend_from_slice(profile);
        let out = wlc(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        (std::fs::read(&path).expect("csv"), stderr(&out))
    };
    let (clean, clean_log) = collect("clean.csv", &[]);
    let (faulty, faulty_log) = collect("faulty.csv", &["--fault-profile", "spike=0.000001"]);
    assert!(
        faulty_log.contains("0 indicator spikes"),
        "no fault may fire: {faulty_log}"
    );
    assert!(!clean_log.contains("fault injection"), "{clean_log}");
    assert_eq!(clean, faulty, "same seeds, same rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_checkpoint_resume_matches_uninterrupted() {
    let dir = workspace("train_checkpoint_resume_matches_uninterrupted");
    let data = dir.join("resume-data.csv");
    let data_s = data.to_str().expect("utf8 path");
    let out = wlc(&[
        "collect",
        "--samples",
        "10",
        "--out",
        data_s,
        "--duration",
        "3",
        "--warmup",
        "1",
        "--seed",
        "6",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let full = dir.join("full.txt");
    let partial = dir.join("partial.txt");
    let resumed = dir.join("resumed.txt");
    let ckpt = dir.join("partial.ckpt");
    let (full_s, partial_s, resumed_s, ckpt_s) = (
        full.to_str().expect("utf8"),
        partial.to_str().expect("utf8"),
        resumed.to_str().expect("utf8"),
        ckpt.to_str().expect("utf8"),
    );
    let train = |extra: &[&str]| {
        let mut args = vec![
            "train",
            "--data",
            data_s,
            "--hidden",
            "6",
            "--lr",
            "0.01",
            "--threshold",
            "1e-12",
            "--seed",
            "9",
        ];
        args.extend(extra);
        wlc(&args)
    };

    // Uninterrupted 60-epoch run.
    let out = train(&["--out", full_s, "--epochs", "60"]);
    assert!(out.status.success(), "{}", stderr(&out));

    // "Killed" run: stops at epoch 40 with a checkpoint every 20 epochs.
    let out = train(&[
        "--out",
        partial_s,
        "--epochs",
        "40",
        "--checkpoint-every",
        "20",
        "--checkpoint",
        ckpt_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(ckpt.exists());

    // Resume to epoch 60: the model file must match the uninterrupted run
    // byte for byte.
    let out = train(&["--out", resumed_s, "--epochs", "60", "--resume", ckpt_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("resuming from"));
    let full_text = std::fs::read_to_string(&full).expect("full model");
    let resumed_text = std::fs::read_to_string(&resumed).expect("resumed model");
    assert_eq!(full_text, resumed_text);
    assert_ne!(
        std::fs::read_to_string(&partial).expect("partial model"),
        full_text
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A running `wlc serve` child process, killed on drop so a failing
/// assertion cannot leak servers.
struct ServerProc {
    child: Child,
    addr: String,
    // Keeps the stdout pipe readable so the server's final stats line
    // has somewhere to go.
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl ServerProc {
    fn spawn(args: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wlc"))
            .arg("serve")
            .args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve starts");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdout = std::io::BufReader::new(stdout);
        let mut first = String::new();
        stdout.read_line(&mut first).expect("startup line");
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {first}"))
            .to_string();
        ServerProc {
            child,
            addr,
            stdout,
        }
    }

    /// Requests a graceful shutdown and asserts the process exits 0
    /// after printing its drain summary.
    fn shutdown(mut self) {
        let out = wlc(&["predict", "--server", &self.addr, "--shutdown"]);
        assert!(out.status.success(), "{}", stderr(&out));
        let status = self.child.wait().expect("server exits");
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).expect("drain output");
        assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
        assert!(rest.contains("server drained:"), "missing summary: {rest}");
        // Drop still runs, but kill/wait on a reaped child are no-ops.
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_predicts_reloads_and_shuts_down_gracefully() {
    let dir = workspace("serve_predicts_reloads_and_shuts_down_gracefully");
    let data = dir.join("serve-data.csv");
    let model_a = dir.join("serve-model-a.txt");
    let model_b = dir.join("serve-model-b.txt");
    let data_s = data.to_str().expect("utf8 path");

    let out = wlc(&[
        "collect",
        "--samples",
        "10",
        "--out",
        data_s,
        "--duration",
        "3",
        "--warmup",
        "1",
        "--seed",
        "11",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    for (model, seed) in [(&model_a, "1"), (&model_b, "2")] {
        let out = wlc(&[
            "train",
            "--data",
            data_s,
            "--out",
            model.to_str().expect("utf8"),
            "--epochs",
            "200",
            "--hidden",
            "6",
            "--seed",
            seed,
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let model_a_s = model_a.to_str().expect("utf8");
    let model_b_s = model_b.to_str().expect("utf8");

    let server = ServerProc::spawn(&["--model", model_a_s, "--data", data_s, "--quiet"]);
    let addr = server.addr.clone();

    // Healthy prediction from the MLP.
    let out = wlc(&["predict", "--server", &addr, "--config", "450,10,16,10"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model: mlp"), "{text}");
    assert!(text.contains("throughput"), "{text}");
    assert!(!text.contains("DEGRADED"), "{text}");

    // Status probes.
    let out = wlc(&["predict", "--server", &addr, "--status"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ready"), "{text}");
    assert!(text.contains("breaker"), "{text}");

    // Server-side validation failures exit 3 (consistent with local
    // validation) and are not retried.
    let out = wlc(&["predict", "--server", &addr, "--config", "450,10"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("width mismatch"), "{}", stderr(&out));

    // Invalid reloads are rejected without disturbing the server...
    let corrupt = dir.join("corrupt-model.txt");
    std::fs::write(&corrupt, "not a model").expect("write corrupt");
    let out = wlc(&[
        "predict",
        "--server",
        &addr,
        "--reload",
        corrupt.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    // ... and a valid reload swaps to the new model.
    let out = wlc(&["predict", "--server", &addr, "--reload", model_b_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("reloaded: generation 1"));

    server.shutdown();

    // The drained server is gone: client attempts exhaust retries, exit 5.
    let out = wlc(&[
        "predict",
        "--server",
        &addr,
        "--config",
        "450,10,16,10",
        "--retries",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_degrades_to_baseline_when_model_is_unusable() {
    let dir = workspace("serve_degrades_to_baseline_when_model_is_unusable");
    let data = dir.join("degraded-data.csv");
    let data_s = data.to_str().expect("utf8 path");
    let out = wlc(&[
        "collect",
        "--samples",
        "8",
        "--out",
        data_s,
        "--duration",
        "3",
        "--warmup",
        "1",
        "--seed",
        "12",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // The MLP file does not exist, but --data provides a baseline: the
    // server starts degraded instead of failing.
    let missing = dir.join("nope.txt");
    let server = ServerProc::spawn(&[
        "--model",
        missing.to_str().expect("utf8"),
        "--data",
        data_s,
        "--quiet",
    ]);
    let out = wlc(&[
        "predict",
        "--server",
        &server.addr,
        "--config",
        "450,10,16,10",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("linear-baseline"), "{text}");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_usage_and_exit_codes() {
    // No flags → usage (exit 2).
    assert_eq!(wlc(&["serve"]).status.code(), Some(2));
    // No model source → usage error (exit 2).
    let out = wlc(&["serve", "--queue", "8"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("something to serve"),
        "{}",
        stderr(&out)
    );
    // A missing model with no baseline cannot serve: model load error.
    let out = wlc(&["serve", "--model", "/nonexistent/model.txt"]);
    assert!(!out.status.success());
}

#[test]
fn bench_check_refuses_a_report_of_another_schema_or_thread_count() {
    let dir = workspace("bench_check_refuses_a_report_of_another_schema_or_thread_count");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nn.json");
    let text = std::fs::read_to_string(committed).expect("committed report");
    assert!(text.contains("\"schema\":2.0"), "{text}");
    std::fs::write(
        dir.join("old.json"),
        text.replace("\"schema\":2.0", "\"schema\":1.0"),
    )
    .expect("write report");
    let cases: [(&[&str], &str); 2] = [
        (
            &["--quick", "--check", "old.json"],
            "old.json: committed report schema is 1, this binary writes schema 2",
        ),
        (
            &["--quick", "--jobs", "2", "--check", committed],
            "measured with threads=1 but this run uses --jobs 2",
        ),
    ];
    for (args, want) in cases {
        // Run in `dir`, where a report the run wrote would land.
        let out = Command::new(env!("CARGO_BIN_EXE_wlc"))
            .arg("bench")
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains(want), "{}", stderr(&out));
        // Refused before any timed arm ran or any report was written.
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        assert!(!dir.join("BENCH_nn.new.json").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_pipeline_collect_train_predict_cv_surface() {
    let dir = workspace("full_pipeline_collect_train_predict_cv_surface");
    let data = dir.join("data.csv");
    let model = dir.join("model.txt");
    let data_s = data.to_str().expect("utf8 path");
    let model_s = model.to_str().expect("utf8 path");

    // collect
    let out = wlc(&[
        "collect",
        "--samples",
        "12",
        "--out",
        data_s,
        "--duration",
        "4",
        "--warmup",
        "1",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(data.exists());
    assert!(stdout(&out).contains("wrote 12 samples"));

    // train
    let out = wlc(&[
        "train", "--data", data_s, "--out", model_s, "--epochs", "800", "--hidden", "8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(model.exists());
    assert!(stdout(&out).contains("trained [4, 8, 5]"));

    // predict
    let out = wlc(&["predict", "--model", model_s, "--config", "450,10,16,10"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("throughput"));

    // predict with wrong width fails cleanly
    let out = wlc(&["predict", "--model", model_s, "--config", "450,10"]);
    assert!(!out.status.success());

    // cv
    let out = wlc(&[
        "cv", "--data", data_s, "--k", "3", "--epochs", "300", "--hidden", "8",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("Average"));

    // surface
    let out = wlc(&[
        "surface",
        "--model",
        model_s,
        "--base",
        "450,10,16,10",
        "--indicator",
        "4",
        "--steps",
        "5",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("classification:"));
    assert!(text.contains("throughput"));

    std::fs::remove_dir_all(&dir).ok();
}
