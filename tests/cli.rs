//! Integration tests for the `vax780` command-line front end.

use std::process::Command;

fn vax780() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vax780"))
}

#[test]
fn list_prints_all_workloads() {
    let out = vax780().arg("list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "timesharing-light",
        "timesharing-heavy",
        "educational",
        "sci-eng",
        "commercial",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn usage_on_no_args() {
    let out = vax780().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn run_save_and_report_round_trip() {
    let dir = std::env::temp_dir().join("vax780-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let hist = dir.join("hist.txt");
    let out = vax780()
        .args([
            "run",
            "--workload",
            "timesharing-light",
            "--instructions",
            "8000",
            "--warmup",
            "2000",
            "--save-histogram",
        ])
        .arg(&hist)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TABLE 8"));
    assert!(text.contains("paper vs measured"));

    // Re-analyse the saved histogram: same instruction count appears.
    let out2 = vax780()
        .args(["report", "--histogram"])
        .arg(&hist)
        .output()
        .expect("runs");
    assert!(out2.status.success());
    let t1 = text.split("instructions ").nth(1).unwrap();
    let t2 = String::from_utf8_lossy(&out2.stdout);
    let t2 = t2.split("instructions ").nth(1).unwrap().to_string();
    let n1: u64 = t1.split_whitespace().next().unwrap().parse().unwrap();
    let n2: u64 = t2.split_whitespace().next().unwrap().parse().unwrap();
    assert_eq!(n1, n2, "saved histogram preserves the measurement");
}

#[test]
fn disasm_produces_vax_assembly() {
    let out = vax780()
        .args([
            "disasm",
            "--workload",
            "sci-eng",
            "--function",
            "1",
            "--lines",
            "10",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".entry mask="));
    assert!(text.contains("moval"), "prologue expected:\n{text}");
}

#[test]
fn rejects_unknown_workload() {
    let out = vax780()
        .args(["run", "--workload", "nonesuch"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn trace_exports_both_formats_and_reconciles() {
    let dir = std::env::temp_dir().join("vax780-trace-test");
    std::fs::create_dir_all(&dir).unwrap();

    // JSONL export, with self-metrics.
    let jsonl = dir.join("run.jsonl");
    let out = vax780()
        .args([
            "trace",
            "--workload",
            "educational",
            "--instructions",
            "6000",
            "--warmup",
            "2000",
            "--metrics",
            "--trace-out",
        ])
        .arg(&jsonl)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("all instruments agree"),
        "reconciliation:\n{text}"
    );
    assert!(text.contains("simulator self-metrics"));
    assert!(text.contains("cyc/s"));
    let trace = std::fs::read_to_string(&jsonl).unwrap();
    for line in trace.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "JSONL line is not an object: {line}"
        );
    }
    assert!(trace.lines().last().unwrap().contains("\"ev\":\"summary\""));
    assert!(trace.contains("\"ev\":\"retire\""));
    assert!(trace.contains("\"ev\":\"phase\",\"name\":\"measure\""));

    // Chrome trace_event export.
    let chrome = dir.join("run.chrome.json");
    let out = vax780()
        .args([
            "trace",
            "--workload",
            "timesharing-light",
            "--instructions",
            "6000",
            "--warmup",
            "2000",
            "--trace-format",
            "chrome",
            "--trace-out",
        ])
        .arg(&chrome)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("all instruments agree"));
    let trace = std::fs::read_to_string(&chrome).unwrap();
    assert!(trace.starts_with("{\"displayTimeUnit\""));
    assert!(trace.trim_end().ends_with("]}"));
    assert!(trace.contains("\"traceEvents\""));
}

#[test]
fn trace_rejects_bad_format() {
    let out = vax780()
        .args(["trace", "--trace-format", "yaml"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace format"));
}

#[test]
fn rejects_unknown_flags_naming_the_flag() {
    // A typo must abort with a nonzero exit naming the flag — never
    // silently run the defaults.
    for (sub, bad) in [
        ("run", "--instruction"),
        ("trace", "--trace-outt"),
        ("inject", "--seeds"),
        ("probe", "--pairs"),
        ("report", "--histograms"),
        ("disasm", "--line"),
        ("sweep", "--axes"),
        ("lint", "--profiles"),
        ("list", "--verbose"),
    ] {
        let out = vax780().args([sub, bad, "5"]).output().expect("runs");
        assert!(!out.status.success(), "{sub} {bad} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unrecognized option '{bad}'")),
            "{sub}: stderr should name {bad}:\n{err}"
        );
    }
    // Stray positional arguments are rejected too.
    let out = vax780().args(["run", "oops"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument 'oops'"));
    // A value-taking option at the end of the line wants its value.
    let out = vax780().args(["run", "--workload"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires a value"));
}

/// Retired options are gone: naming one fails up front, naming the
/// option, instead of silently running the defaults. That covers the
/// block tier and the dynamic verify pass, the in-process retries and
/// `--halt-after` of the campaign pool, and the process-per-attempt
/// executor with its hidden `job-worker` subcommand.
#[test]
fn retired_bench_and_verify_options_are_rejected_naming_the_option() {
    for (args, option) in [
        (&["bench", "--tier", "block"][..], "--tier"),
        (
            &["verify", "--all-profiles", "--static-only"],
            "--static-only",
        ),
        (
            &["verify", "--all-profiles", "--instructions", "200000"],
            "--instructions",
        ),
        (&["run", "--halt-after", "2"], "--halt-after"),
        (&["run", "--retry", "2"], "--retry"),
        (&["sweep", "--retry", "2"], "--retry"),
        (
            &["serve", "--queue", "q.journal", "--process-workers"],
            "--process-workers",
        ),
        (
            &[
                "worker",
                "--connect",
                "tcp:127.0.0.1:1",
                "--process-workers",
            ],
            "--process-workers",
        ),
    ] {
        let out = vax780().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unrecognized option '{option}'")),
            "{args:?}: stderr should name {option}:\n{err}"
        );
    }
    let out = vax780().arg("job-worker").output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown subcommand 'job-worker'"),
        "stderr should name job-worker:\n{err}"
    );
}

/// A numeric option that does not parse is an error naming the flag
/// and the value, never a silent fall back to the default length.
#[test]
fn numeric_options_reject_bad_values_naming_flag_and_value() {
    for args in [
        &["run", "--workload", "sci-eng", "--instructions", "abc"][..],
        &["run", "--warmup", "-1"],
        &["sweep", "--instructions", "1e3"],
        &["sweep", "--warmup", "lots"],
        &["trace", "--instructions", "1k"],
        &["trace", "--warmup", "x"],
        &["trace", "--trace-limit", "-5"],
        &["inject", "--faults", "parity", "--instructions", "2.5"],
        &["inject", "--faults", "parity", "--warmup", "ten"],
        &["disasm", "--lines", "all"],
        &["disasm", "--function", "first"],
    ] {
        let out = vax780().args(args).output().expect("runs");
        assert!(!out.status.success(), "{args:?} should fail");
        let (flag, value) = (args[args.len() - 2], args[args.len() - 1]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains(&format!("'{value}'")),
            "{args:?}: stderr should name {flag} and '{value}':\n{err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?}: nothing may run with a bad value"
        );
    }
}

#[test]
fn retry_flags_reject_non_numeric_values_naming_the_flag() {
    for sub in ["serve", "drain"] {
        let out = vax780()
            .args([sub, "--retry", "three"])
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{sub} --retry three should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--retry"),
            "{sub}: stderr must name the flag:\n{err}"
        );
        assert!(
            err.contains("'three'"),
            "{sub}: stderr must echo the value:\n{err}"
        );

        // A retry re-queues the job without a sleep, so there is no
        // backoff to set: the old flag is an unrecognized option.
        let out = vax780()
            .args([sub, "--retry-backoff-ms", "100"])
            .output()
            .expect("runs");
        assert!(
            !out.status.success(),
            "{sub} --retry-backoff-ms 100 should fail"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unrecognized option '--retry-backoff-ms'"),
            "{sub}: stderr must name the flag:\n{err}"
        );
    }

    // Valid values are accepted end to end (an offline drain of a
    // one-job queue).
    let dir = std::env::temp_dir().join("vax780-retry-flags-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = vax780()
        .args(["enqueue", "--queue"])
        .arg(dir.join("q.journal"))
        .args([
            "--spec",
            "workload=educational instructions=2000 warmup=500",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = vax780()
        .args(["drain", "--queue"])
        .arg(dir.join("q.journal"))
        .args(["--retry", "2"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A `drain --socket` stream that ends before its `end` line fails the
/// command, naming how many lines arrived, and `--out` keeps those
/// lines.
#[test]
fn drain_socket_cut_short_keeps_the_streamed_lines() {
    use std::io::{BufRead, BufReader, Write};

    let dir = std::env::temp_dir().join("vax780-drain-cut-short");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("s.sock");
    let line = r#"{"job":1,"spec":"workload=sci-eng","failed":true,"attempts":1}"#;
    // A fake server: one result line in answer to `drain`, then close.
    let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
    let server = std::thread::spawn(move || {
        let mut conn = BufReader::new(listener.accept().unwrap().0);
        let mut request = String::new();
        conn.read_line(&mut request).unwrap();
        writeln!(conn.get_mut(), "{line}").unwrap();
        request
    });
    let out = vax780()
        .args(["drain", "--socket"])
        .arg(&socket)
        .arg("--out")
        .arg(dir.join("out.jsonl"))
        .output()
        .expect("runs");
    assert_eq!(server.join().unwrap(), "drain\n");
    assert_eq!(out.status.code(), Some(1), "a drain cut short must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 line(s) streamed"), "{err}");
    assert_eq!(
        std::fs::read_to_string(dir.join("out.jsonl")).unwrap(),
        format!("{line}\n")
    );
}

/// `status`, `compact` and `drain` against a `--queue` path that does
/// not exist fail naming the path and create nothing: a typo must not
/// report an empty queue and leave a fresh journal behind. `enqueue
/// --queue` still creates the journal.
#[test]
fn offline_readers_refuse_a_missing_journal_and_create_nothing() {
    let dir = std::env::temp_dir().join("vax780-missing-journal-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("typo.journal");
    for command in ["status", "compact", "drain"] {
        let out = vax780()
            .args([command, "--queue"])
            .arg(&journal)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{command} of a missing journal");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{} does not exist", journal.display())),
            "{command}: stderr must name the path:\n{err}"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{command} created a file"
        );
    }
    let out = vax780()
        .args(["enqueue", "--queue"])
        .arg(&journal)
        .args([
            "--spec",
            "workload=educational instructions=2000 warmup=500",
        ])
        .output()
        .expect("runs");
    assert!(out.status.success());
    let out = vax780()
        .args(["status", "--queue"])
        .arg(&journal)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pending 1 done 0 failed 0"), "{text}");
}

#[test]
fn inject_campaign_reconciles_and_reports_sensitivity() {
    let out = vax780()
        .args([
            "inject",
            "--workload",
            "educational",
            "--instructions",
            "6000",
            "--warmup",
            "2000",
            "--faults",
            "parity,sbi-timeout",
            "--seed",
            "780",
            "--report",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fired cache-parity @ cycle"), "{text}");
    assert!(text.contains("fired sbi-timeout @ cycle"), "{text}");
    assert!(
        text.contains("all instruments agree"),
        "injected run must reconcile:\n{text}"
    );
    assert!(text.contains("machine_checks"), "{text}");
    assert!(text.contains("FAULT SENSITIVITY"), "{text}");
    assert!(text.contains("dCPI"), "{text}");

    // The same seed prints the same fault log, cycle for cycle.
    let again = vax780()
        .args([
            "inject",
            "--workload",
            "educational",
            "--instructions",
            "6000",
            "--warmup",
            "2000",
            "--faults",
            "parity,sbi-timeout",
            "--seed",
            "780",
        ])
        .output()
        .expect("runs");
    assert!(again.status.success());
    let fired = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| l.starts_with("fired "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        fired(&text),
        fired(&String::from_utf8_lossy(&again.stdout)),
        "seeded injection must be reproducible"
    );
}

#[test]
fn inject_rejects_bad_plans_and_classes() {
    let out = vax780().arg("inject").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --fault-plan"));

    let out = vax780()
        .args(["inject", "--faults", "gamma-ray"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown fault class 'gamma-ray'"));

    let dir = std::env::temp_dir().join("vax780-inject-test");
    std::fs::create_dir_all(&dir).unwrap();
    let plan = dir.join("bad.plan");
    std::fs::write(&plan, "not a plan\n").unwrap();
    let out = vax780()
        .args(["inject", "--fault-plan"])
        .arg(&plan)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse"), "{err}");
    assert!(err.contains("bad.plan"), "error must name the file: {err}");
}

/// Satellite of the robustness work: every subcommand that writes an
/// output file must exit nonzero *naming the path* when the write
/// fails, instead of panicking.
#[test]
fn output_write_failures_exit_nonzero_naming_the_path() {
    let dir = std::env::temp_dir().join("vax780-unwritable-test");
    std::fs::create_dir_all(&dir).unwrap();
    // A path under a regular file can never be created.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "x").unwrap();
    let bad = blocker.join("out.txt");
    let bad_str = bad.to_string_lossy().into_owned();

    let cases: Vec<Vec<String>> = vec![
        vec![
            "run".into(),
            "--workload".into(),
            "timesharing-light".into(),
            "--instructions".into(),
            "2000".into(),
            "--warmup".into(),
            "500".into(),
            "--save-histogram".into(),
            bad_str.clone(),
        ],
        vec![
            "sweep".into(),
            "--workload".into(),
            "timesharing-light".into(),
            "--instructions".into(),
            "1500".into(),
            "--warmup".into(),
            "500".into(),
            "--axis".into(),
            "write-buffer".into(),
            "--csv".into(),
            bad_str.clone(),
        ],
        vec![
            "trace".into(),
            "--workload".into(),
            "timesharing-light".into(),
            "--instructions".into(),
            "1500".into(),
            "--warmup".into(),
            "500".into(),
            "--trace-out".into(),
            bad_str.clone(),
        ],
        vec![
            "lint".into(),
            "--profile".into(),
            "timesharing-light".into(),
            "--emit-image".into(),
            bad_str.clone(),
        ],
        vec![
            "probe".into(),
            "--pair".into(),
            "movl:none".into(),
            "--out".into(),
            bad_str.clone(),
        ],
        vec![
            "run".into(),
            "--workload".into(),
            "all".into(),
            "--instructions".into(),
            "1000".into(),
            "--warmup".into(),
            "300".into(),
            "--checkpoint".into(),
            bad_str.clone(),
        ],
    ];
    for case in cases {
        let out = vax780().args(&case).output().expect("runs");
        assert!(
            !out.status.success(),
            "{:?} should fail on an unwritable path",
            case[0]
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("blocker"),
            "{}: stderr must name the path:\n{err}",
            case[0]
        );
        assert!(
            !err.contains("panicked"),
            "{}: must fail cleanly, not panic:\n{err}",
            case[0]
        );
    }
}

/// `run --checkpoint` is "enqueue, then drain" over a queue journal:
/// two of the composite's five jobs settled beforehand by `enqueue` and
/// `drain` are restored, the other three run, and the composite equals
/// an uninterrupted campaign's. A journal of another campaign, an old
/// `vax-queue-journal` v2 or v1 and a retired `vax-campaign-checkpoint
/// v1` are all refused, naming what they hold.
#[test]
fn run_checkpoint_resumes_a_partly_drained_journal_and_matches_uninterrupted() {
    let dir = std::env::temp_dir().join("vax780-ckpt-cli-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("camp.journal");
    let base = [
        "run",
        "--workload",
        "all",
        "--instructions",
        "2000",
        "--warmup",
        "800",
    ];

    let uninterrupted = vax780().args(base).output().expect("runs");
    assert!(uninterrupted.status.success());
    let headline = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("instructions "))
            .expect("headline")
            .to_string()
    };
    let expect = headline(&String::from_utf8_lossy(&uninterrupted.stdout));

    // Settle two of the five composite jobs through the queue...
    let enqueued = vax780()
        .args(["enqueue", "--queue"])
        .arg(&journal)
        .args([
            "--spec",
            "workload=sci-eng instructions=2000 warmup=800",
            "--spec",
            "workload=timesharing-light instructions=2000 warmup=800",
        ])
        .output()
        .expect("runs");
    assert!(enqueued.status.success());
    let drained = vax780()
        .args(["drain", "--queue"])
        .arg(&journal)
        .arg("--serial")
        .output()
        .expect("runs");
    assert!(
        drained.status.success(),
        "{}",
        String::from_utf8_lossy(&drained.stderr)
    );

    // ...then finish the campaign on the same journal, and get the
    // uninterrupted campaign's exact numbers.
    let resumed = vax780()
        .args(base)
        .args(["--checkpoint"])
        .arg(&journal)
        .output()
        .expect("runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let rerr = String::from_utf8_lossy(&resumed.stderr);
    assert!(rerr.contains("resuming: 2 job(s) restored"), "{rerr}");
    assert_eq!(
        headline(&String::from_utf8_lossy(&resumed.stdout)),
        expect,
        "resumed campaign must be bit-identical to uninterrupted"
    );
    let status = vax780()
        .args(["status", "--queue"])
        .arg(&journal)
        .output()
        .expect("runs");
    assert!(
        String::from_utf8_lossy(&status.stdout).contains("pending 0 done 5 failed 0"),
        "{}",
        String::from_utf8_lossy(&status.stdout)
    );

    // A journal holding another campaign's spec is refused, naming it.
    let other = dir.join("other.journal");
    let enqueued = vax780()
        .args(["enqueue", "--queue"])
        .arg(&other)
        .args([
            "--spec",
            "workload=educational instructions=4000 warmup=800",
        ])
        .output()
        .expect("runs");
    assert!(enqueued.status.success());
    let mismatch = vax780()
        .args(base)
        .args(["--checkpoint"])
        .arg(&other)
        .output()
        .expect("runs");
    assert!(!mismatch.status.success());
    let err = String::from_utf8_lossy(&mismatch.stderr);
    assert!(
        err.contains("workload=educational instructions=4000 warmup=800"),
        "{err}"
    );

    // Retired formats are refused with the header they carry.
    for header in [
        "vax-queue-journal v2 generation 0 next 1",
        "vax-queue-journal v1",
        "vax-campaign-checkpoint v1",
    ] {
        let old = dir.join("old.file");
        std::fs::write(&old, format!("{header}\n")).unwrap();
        let out = vax780()
            .args(base)
            .args(["--checkpoint"])
            .arg(&old)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{header} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("got `{header}`")), "{err}");
    }
}

#[test]
fn run_parallel_composite_matches_serial_and_reports_metrics() {
    let base = [
        "run",
        "--workload",
        "all",
        "--instructions",
        "3000",
        "--warmup",
        "1000",
    ];
    let parallel = vax780()
        .args(base)
        .args(["--jobs", "2", "--metrics"])
        .output()
        .expect("runs");
    assert!(
        parallel.status.success(),
        "{}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    let ptext = String::from_utf8_lossy(&parallel.stdout);
    assert!(ptext.contains("campaign self-metrics"), "{ptext}");
    assert!(ptext.contains("speedup"), "{ptext}");

    let serial = vax780().args(base).arg("--serial").output().expect("runs");
    assert!(serial.status.success());
    let stext = String::from_utf8_lossy(&serial.stdout);
    // Same measurement either way: identical instruction/cycle/CPI line.
    let headline = |t: &str| {
        t.lines()
            .find(|l| l.starts_with("instructions "))
            .expect("headline")
            .to_string()
    };
    assert_eq!(headline(&ptext), headline(&stext));
}

/// `run` and `sweep` keep their campaign's queue journal in a private
/// directory under the temp dir and remove it, so TMPDIR is empty again
/// after each. A single-workload `run` resumes from `--checkpoint` too.
#[test]
fn run_and_sweep_leave_nothing_in_tmpdir() {
    let dir = std::env::temp_dir().join("vax780-tmpdir-test");
    let _ = std::fs::remove_dir_all(&dir);
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let small = ["--instructions", "2000", "--warmup", "500"];
    for (cmd, workload) in [
        ("run", "educational"),
        ("run", "all"),
        ("sweep", "educational"),
    ] {
        let out = vax780()
            .args([cmd, "--workload", workload])
            .args(small)
            .args(["--axis", "tb-split"].iter().filter(|_| cmd == "sweep"))
            .env("TMPDIR", &tmp)
            .output()
            .expect("runs");
        assert!(
            out.status.success(),
            "{cmd} {workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().collect();
        assert!(left.is_empty(), "{cmd} {workload} left {left:?}");
        if cmd == "sweep" {
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.contains("\ntb-unified "), "{text}");
        }
    }

    let journal = dir.join("one.journal");
    for restored in [false, true] {
        let out = vax780()
            .args(["run", "--workload", "sci-eng"])
            .args(small)
            .arg("--checkpoint")
            .arg(&journal)
            .output()
            .expect("runs");
        assert!(out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.contains("resuming: 1 job(s) restored"),
            restored,
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_smoke_emits_table_csv_and_jsonl() {
    let dir = std::env::temp_dir().join("vax780-sweep-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("sweep.csv");
    let jsonl = dir.join("sweep.jsonl");
    let out = vax780()
        .args([
            "sweep",
            "--workload",
            "timesharing-light",
            "--instructions",
            "2500",
            "--warmup",
            "1000",
            "--axis",
            "write-buffer",
            "--jobs",
            "2",
            "--metrics",
            "--csv",
        ])
        .arg(&csv)
        .arg("--jsonl")
        .arg(&jsonl)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("configuration sweep"), "{text}");
    assert!(text.contains("baseline"), "{text}");
    assert!(text.contains("write-buffer=4"), "{text}");
    assert!(text.contains("sweep self-metrics"), "{text}");
    assert!(text.contains("speedup"), "{text}");

    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("label,axis,instructions,cycles,cpi"));
    assert_eq!(csv_text.lines().count(), 5); // header + baseline + 3 depths
    let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
    assert_eq!(jsonl_text.lines().count(), 4);
    for line in jsonl_text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"cpi\":"), "{line}");
    }

    let out = vax780()
        .args(["sweep", "--axis", "nonesuch"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown sweep axis 'nonesuch'"));
}

#[test]
fn lint_clean_profile_exits_zero() {
    let out = vax780()
        .args(["lint", "--profile", "timesharing-light", "--deny", "all"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint: clean"));

    // Unknown profiles and deny rules are rejected up front.
    let out = vax780()
        .args(["lint", "--profile", "nonesuch"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
    let out = vax780()
        .args(["lint", "--all-profiles", "--deny", "nonesuch"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule 'nonesuch'"));
}

#[test]
fn lint_corrupted_image_fails_naming_rule_and_offset() {
    let dir = std::env::temp_dir().join("vax780-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let img = dir.join("img.txt");
    let out = vax780()
        .args(["lint", "--profile", "timesharing-light", "--emit-image"])
        .arg(&img)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The dispatcher ends with `brw top` — opcode 0x31 plus two
    // displacement bytes — ending exactly at the first function. Patch
    // the displacement to +32767, far outside the image.
    let text = std::fs::read_to_string(&img).unwrap();
    let hex_field = |key: &str| -> u32 {
        let line = text
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("no '{key}' line"));
        let word = line.split_whitespace().nth(1).unwrap();
        u32::from_str_radix(word.trim_start_matches("0x"), 16).unwrap()
    };
    let brw_off = (hex_field("functions ") - hex_field("base ") - 3) as usize;

    let bytes_line_start = text.find("\nbytes ").unwrap() + 1;
    let hex_start = bytes_line_start + text[bytes_line_start..].find('\n').unwrap() + 1;
    let header = &text[..hex_start];
    let hex: String = text[hex_start..].split_whitespace().collect();
    let mut bytes: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    assert_eq!(bytes[brw_off], 0x31, "expected the dispatcher's brw");
    bytes[brw_off + 1] = 0xff;
    bytes[brw_off + 2] = 0x7f;
    let mut patched = header.to_string();
    for row in bytes.chunks(32) {
        for b in row {
            patched.push_str(&format!("{b:02x}"));
        }
        patched.push('\n');
    }
    std::fs::write(&img, patched).unwrap();

    let out = vax780()
        .args(["lint", "--image"])
        .arg(&img)
        .output()
        .expect("runs");
    assert!(!out.status.success(), "corrupted image must fail lint");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("image-branch-target"), "{report}");
    assert!(
        report.contains(&format!("+{brw_off:#06x}")),
        "diagnostic should name the byte offset:\n{report}"
    );
}

#[test]
fn probe_writes_artifact_and_sample_exports() {
    let dir = std::env::temp_dir().join("vax780-probe-test");
    std::fs::create_dir_all(&dir).unwrap();
    let tables = dir.join("tables.txt");
    let samples = dir.join("samples.jsonl");
    let folded = dir.join("samples.folded");
    let out = vax780()
        .args([
            "probe",
            "--pair",
            "movl:none",
            "--pair",
            "incl:register-deferred",
            "--deny",
            "all",
            "--out",
        ])
        .arg(&tables)
        .arg("--samples")
        .arg(&samples)
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("lint: clean"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("probed 2 pair(s): 2 clean"));

    let text = std::fs::read_to_string(&tables).unwrap();
    assert!(text.starts_with("vax-probe-tables v1\n"), "{text}");
    assert!(text.contains("meta cpu-model "), "{text}");
    assert!(text.contains("op movl entry=1 "), "{text}");
    assert!(text.contains("pair movl none ok"), "{text}");
    assert!(text.contains("pair incl register-deferred ok"), "{text}");
    assert!(text.trim_end().ends_with("end"), "{text}");

    // Samples land under per-pair phases in both export formats.
    let samples = std::fs::read_to_string(&samples).unwrap();
    for line in samples.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(samples.contains("movl:none/probe"), "{samples}");
    let folded = std::fs::read_to_string(&folded).unwrap();
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("incl:register-deferred/cal;")),
        "{folded}"
    );
}

#[test]
fn probe_refutes_the_model_without_the_allowlist() {
    // The byte-displacement fast path: without PROBE_ALLOW.txt the
    // probe must refute the static table's compute claim...
    let out = vax780()
        .args(["probe", "--pair", "movl:displacement"])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "disagreement must be a nonzero exit");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("probe-mode"), "{text}");
    assert!(
        text.contains("mode displacement read compute: model claims 1, measured 0"),
        "{text}"
    );

    // ...and with the checked-in allowlist the refinement is accepted.
    let out = vax780()
        .args([
            "probe",
            "--pair",
            "movl:displacement",
            "--allowlist",
            "PROBE_ALLOW.txt",
            "--deny",
            "all",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn probe_rejects_bad_pairs_rules_and_geometry() {
    let out = vax780()
        .args(["probe", "--pair", "movl:sideways"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad pair 'movl:sideways'"));

    let out = vax780()
        .args(["probe", "--deny", "nonesuch"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown rule 'nonesuch'"));

    let out = vax780()
        .args(["probe", "--pair", "movl:none", "--iters", "0"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("probe-coverage"), "{text}");
}

#[test]
fn report_json_exports_table8_with_host_stamp() {
    let dir = std::env::temp_dir().join("vax780-report-json-test");
    std::fs::create_dir_all(&dir).unwrap();
    let hist = dir.join("hist.txt");
    let json = dir.join("report.json");
    let out = vax780()
        .args([
            "run",
            "--workload",
            "educational",
            "--instructions",
            "4000",
            "--warmup",
            "1200",
            "--save-histogram",
        ])
        .arg(&hist)
        .output()
        .expect("runs");
    assert!(out.status.success());

    let out = vax780()
        .args(["report", "--histogram"])
        .arg(&hist)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("JSON report written"));
    let text = std::fs::read_to_string(&json).unwrap();
    for key in [
        "\"host\"",
        "\"cpu_model\"",
        "\"instructions\"",
        "\"cpi\"",
        "\"table8\"",
    ] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
}

#[test]
fn report_instructions_hint_overrides_and_validates() {
    let dir = std::env::temp_dir().join("vax780-hint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let hist = dir.join("hist.txt");
    let out = vax780()
        .args([
            "run",
            "--workload",
            "educational",
            "--instructions",
            "5000",
            "--warmup",
            "1500",
            "--save-histogram",
        ])
        .arg(&hist)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let derived: u64 = String::from_utf8_lossy(&out.stdout)
        .split("instructions ")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();

    // A hint within tolerance overrides the normalization count.
    let hint = derived + derived / 50; // +2%
    let out = vax780()
        .args(["report", "--histogram"])
        .arg(&hist)
        .args(["--instructions-hint", &hint.to_string()])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(&format!("instructions {hint}")),
        "hint should override the analysis count:\n{text}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("instruction count overridden"));

    // A wildly wrong hint means the wrong histogram: refuse.
    let out = vax780()
        .args(["report", "--histogram"])
        .arg(&hist)
        .args(["--instructions-hint", &(derived * 10).to_string()])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("disagrees with the histogram"), "{err}");

    // Garbage hints are rejected up front.
    let out = vax780()
        .args(["report", "--histogram"])
        .arg(&hist)
        .args(["--instructions-hint", "many"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("positive integer"));
}
