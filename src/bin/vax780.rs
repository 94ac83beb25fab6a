//! `vax780` — command-line front end for the characterization study.
//!
//! ```text
//! vax780 run [--workload NAME|all] [--instructions N] [--warmup N]
//!            [--decode-overlap] [--save-histogram FILE]
//!            [--jobs N] [--serial] [--metrics] [--checkpoint FILE]
//! vax780 serve --queue FILE --socket PATH|tcp:ADDR [--jobs N]
//!              [--capacity N] [--client-quota N] [--compact-every N]
//!              [--retry N] [--timeout-secs S] [--metrics]
//! vax780 enqueue (--queue FILE | --socket PATH) [--client NAME] --spec LINE...
//! vax780 status (--queue FILE | --socket PATH)
//! vax780 drain (--queue FILE [--jobs N] ... | --socket PATH) [--out FILE]
//! vax780 worker --connect PATH|tcp:ADDR [--timeout-secs S]
//! vax780 compact (--queue FILE | --socket PATH)
//! vax780 sweep [--workload NAME|all] [--instructions N] [--warmup N]
//!              [--axis NAME]... [--jobs N] [--serial]
//!              [--csv FILE] [--jsonl FILE] [--metrics]
//! vax780 trace [--workload NAME] [--instructions N] [--warmup N]
//!              [--trace-out FILE] [--trace-format jsonl|chrome]
//!              [--trace-limit N] [--metrics]
//! vax780 inject (--fault-plan FILE | --faults LIST [--seed N])
//!               [--workload NAME] [--instructions N] [--warmup N]
//!               [--report]
//! vax780 probe [--pair MN:CLASS|none]... [--unroll N] [--iters N]
//!              [--allowlist FILE] [--out FILE]
//!              [--samples FILE] [--folded FILE]
//!              [--jsonl] [--deny RULE|all]
//! vax780 report --histogram FILE [--instructions-hint N] [--json FILE]
//! vax780 disasm --workload NAME [--function K] [--lines N]
//! vax780 bench [--instructions N] [--trace-instructions N] [--warmup N]
//!              [--repeat N] [--json FILE]
//! vax780 list
//! ```
//!
//! `run` measures one workload (or the five-workload composite), prints
//! every table plus the paper comparison, and can save the raw
//! histogram; like `sweep`, it is a campaign of one job per workload,
//! enqueued into a queue journal and drained by the server's worker
//! pool. The journal is private and temporary unless `--checkpoint
//! FILE` names it, so a killed campaign resumes from the file. `serve`
//! runs the crash-safe campaign server:
//! a persistent `vax-queue-journal v3` job queue (one append-only file
//! whose compacted settled jobs replay from an index without being
//! read, so replay stays O(unsettled) no matter the history) drained by
//! a worker pool (threads, or remote
//! `vax780 worker --connect` processes claiming over TCP), listening on
//! a Unix socket or TCP address with bounded-capacity backpressure and
//! optional per-client quotas — `enqueue`, `status`, `drain`, and
//! `compact` are its clients (each also works offline against
//! `--queue` when no server owns the journal); a SIGKILLed server
//! restarts from the journal and re-runs only unsettled jobs,
//! bit-identically; `sweep` re-measures the composite
//! under a grid of machine ablations (§6 what-ifs by simulation) and
//! emits a per-point CPI/stall table plus optional CSV/JSONL; `trace`
//! runs a workload with the second instrument attached (the event
//! tracer riding alongside the µPC board), exports the trace, and
//! reconciles the two instruments against the hardware counters;
//! `inject` runs a workload under a deterministic fault plan — the
//! scheduled faults trap to machine-check microcode, every instrument
//! attributes the recovery cycles, and the run must still reconcile
//! exactly (with `--report`, a clean baseline and one run per fault
//! class quantify ΔCPI per class);
//! `probe` characterizes the machine from the outside: one generated
//! microbenchmark per opcode × addressing-mode pair, measured under
//! every instrument at once, differenced against a calibration loop,
//! and diffed bucket-by-bucket against the static latency model —
//! disagreements become typed `probe-*` diagnostics unless an
//! allowlist accepts them as measured refinements;
//! `report` re-analyses a saved histogram (the paper's "additional
//! interpretation of the raw histogram data", §2.2); `disasm` shows the
//! generated VAX code a workload actually runs; `bench` measures the
//! *simulator* — the naive reference loop vs the default loop with
//! its host fast paths over all five workloads — and fails unless both
//! loops produce bit-identical histograms, counters, and trace streams.
//!
//! Unrecognized options are an error: a typo aborts the run instead of
//! silently measuring the defaults.

use std::process::ExitCode;
use std::sync::Arc;
use vax780_core::sweep::{SweepAxis, SweepGrid};
use vax780_core::{Experiment, MeasuredWorkload, RetryPolicy};
use vax_analysis::report::StudyReport;
use vax_analysis::Analysis;
use vax_ucode::ControlStore;
use vax_workloads::{profile, WorkloadKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => checked(cmd_run, "run", &args[1..], RUN_SPEC),
        Some("sweep") => checked(cmd_sweep, "sweep", &args[1..], SWEEP_SPEC),
        Some("trace") => checked(cmd_trace, "trace", &args[1..], TRACE_SPEC),
        Some("inject") => checked(cmd_inject, "inject", &args[1..], INJECT_SPEC),
        Some("report") => checked(cmd_report, "report", &args[1..], REPORT_SPEC),
        Some("probe") => checked(cmd_probe, "probe", &args[1..], PROBE_SPEC),
        Some("disasm") => checked(cmd_disasm, "disasm", &args[1..], DISASM_SPEC),
        Some("lint") => checked(cmd_lint, "lint", &args[1..], LINT_SPEC),
        Some("verify") => checked(cmd_verify, "verify", &args[1..], VERIFY_SPEC),
        Some("bench") => checked(cmd_bench, "bench", &args[1..], BENCH_SPEC),
        Some("serve") => checked(cmd_serve, "serve", &args[1..], SERVE_SPEC),
        Some("enqueue") => checked(cmd_enqueue, "enqueue", &args[1..], ENQUEUE_SPEC),
        Some("status") => checked(cmd_status, "status", &args[1..], STATUS_SPEC),
        Some("drain") => checked(cmd_drain, "drain", &args[1..], DRAIN_SPEC),
        Some("worker") => checked(cmd_worker, "worker", &args[1..], WORKER_SPEC),
        Some("compact") => checked(cmd_compact, "compact", &args[1..], COMPACT_SPEC),
        Some("list") => checked(
            |_| {
                for kind in WorkloadKind::ALL {
                    println!("{}", kind.name());
                }
                ExitCode::SUCCESS
            },
            "list",
            &args[1..],
            &[],
        ),
        other => {
            if let Some(name) = other {
                eprintln!("vax780: unknown subcommand '{name}'");
            }
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: vax780 <run|sweep|serve|enqueue|status|drain|worker|compact|trace|inject|probe|\
     report|disasm|lint|verify|bench|list> [options]\n\
     \n\
     run     --workload NAME|all  --instructions N  --warmup N\n\
     \x20       --decode-overlap  --save-histogram FILE\n\
     \x20       --jobs N  --serial  --metrics  --checkpoint FILE\n\
     \x20       (--checkpoint: keep the campaign's queue journal in FILE;\n\
     \x20        re-run the same command to resume a killed campaign)\n\
     serve   --queue FILE  --socket PATH|tcp:ADDR  --jobs N  --capacity N\n\
     \x20       --client-quota N  --compact-every N\n\
     \x20       --retry N  --timeout-secs S  --metrics\n\
     \x20       (--jobs 0 = no local workers; remote `vax780 worker` only)\n\
     enqueue (--queue FILE | --socket PATH)  --client NAME  --spec LINE (repeatable)\n\
     \x20       (spec: workload=NAME instructions=N warmup=N [seed=N] [tier=naive]\n\
     \x20        [decode-overlap=1] [cache-kb=N] [cache-ways=N] [tb-entries=N]\n\
     \x20        [tb-split=0] [write-buffer=N]\n\
     \x20        [faults=A+B fault-seed=N fault-count=N fault-window=N])\n\
     status  (--queue FILE | --socket PATH)\n\
     drain   (--queue FILE  --jobs N  --retry N  --timeout-secs S\n\
     \x20        | --socket PATH)  --out FILE\n\
     worker  --connect PATH|tcp:ADDR  --timeout-secs S\n\
     \x20       (claim jobs from a remote `serve` until it drains)\n\
     compact (--queue FILE | --socket PATH)\n\
     \x20       (rewrite the journal with its settled jobs compacted)\n\
     sweep   --workload NAME|all  --instructions N  --warmup N\n\
     \x20       --axis cache-size|cache-ways|tb-entries|tb-split|write-buffer|decode-overlap\n\
     \x20       --jobs N  --serial  --csv FILE  --jsonl FILE  --metrics\n\
     trace   --workload NAME  --instructions N  --warmup N\n\
     \x20       --trace-out FILE  --trace-format jsonl|chrome\n\
     \x20       --trace-limit N  --metrics\n\
     inject  --fault-plan FILE | --faults CLASS[,CLASS...]  --seed N\n\
     \x20       --workload NAME  --instructions N  --warmup N  --report\n\
     \x20       (classes: cache-parity tb-corrupt sbi-timeout write-buffer cs-bit-flip)\n\
     probe   --pair MN:CLASS|none (repeatable)  --unroll N  --iters N\n\
     \x20       --allowlist FILE  --out FILE  --samples FILE  --folded FILE\n\
     \x20       --jsonl  --deny RULE|all\n\
     report  --histogram FILE  --instructions-hint N  --json FILE\n\
     disasm  --workload NAME  --function K  --lines N\n\
     lint    --profile NAME  --all-profiles  --image FILE\n\
     \x20       --emit-image FILE  --effects  --list-rules\n\
     \x20       --jsonl  --deny RULE|all\n\
     verify  --profile NAME|--all-profiles  --jsonl  --deny RULE|all\n\
     bench   --instructions N  --trace-instructions N  --warmup N\n\
     \x20       --repeat N  --json FILE\n\
     list    (print workload names)";

/// Option spec for one subcommand: `(name, takes_value)`.
type Spec = &'static [(&'static str, bool)];

const RUN_SPEC: Spec = &[
    ("--workload", true),
    ("--instructions", true),
    ("--warmup", true),
    ("--decode-overlap", false),
    ("--save-histogram", true),
    ("--jobs", true),
    ("--serial", false),
    ("--metrics", false),
    ("--checkpoint", true),
];
const SWEEP_SPEC: Spec = &[
    ("--workload", true),
    ("--instructions", true),
    ("--warmup", true),
    ("--axis", true),
    ("--jobs", true),
    ("--serial", false),
    ("--csv", true),
    ("--jsonl", true),
    ("--metrics", false),
];
const SERVE_SPEC: Spec = &[
    ("--queue", true),
    ("--socket", true),
    ("--jobs", true),
    ("--serial", false),
    ("--capacity", true),
    ("--client-quota", true),
    ("--compact-every", true),
    ("--retry", true),
    ("--timeout-secs", true),
    ("--metrics", false),
];
const ENQUEUE_SPEC: Spec = &[
    ("--queue", true),
    ("--socket", true),
    ("--client", true),
    ("--spec", true),
];
const WORKER_SPEC: Spec = &[("--connect", true), ("--timeout-secs", true)];
const COMPACT_SPEC: Spec = &[("--queue", true), ("--socket", true)];
const STATUS_SPEC: Spec = &[("--queue", true), ("--socket", true)];
const DRAIN_SPEC: Spec = &[
    ("--queue", true),
    ("--socket", true),
    ("--jobs", true),
    ("--serial", false),
    ("--retry", true),
    ("--timeout-secs", true),
    ("--out", true),
];
const TRACE_SPEC: Spec = &[
    ("--workload", true),
    ("--instructions", true),
    ("--warmup", true),
    ("--trace-out", true),
    ("--trace-format", true),
    ("--trace-limit", true),
    ("--metrics", false),
];
const INJECT_SPEC: Spec = &[
    ("--workload", true),
    ("--instructions", true),
    ("--warmup", true),
    ("--fault-plan", true),
    ("--faults", true),
    ("--seed", true),
    ("--report", false),
];
const REPORT_SPEC: Spec = &[
    ("--histogram", true),
    ("--instructions-hint", true),
    ("--json", true),
];
const PROBE_SPEC: Spec = &[
    ("--pair", true),
    ("--unroll", true),
    ("--iters", true),
    ("--allowlist", true),
    ("--out", true),
    ("--samples", true),
    ("--folded", true),
    ("--jsonl", false),
    ("--deny", true),
];
const DISASM_SPEC: Spec = &[
    ("--workload", true),
    ("--function", true),
    ("--lines", true),
];
const BENCH_SPEC: Spec = &[
    ("--instructions", true),
    ("--trace-instructions", true),
    ("--warmup", true),
    ("--repeat", true),
    ("--json", true),
];
const LINT_SPEC: Spec = &[
    ("--profile", true),
    ("--all-profiles", false),
    ("--image", true),
    ("--emit-image", true),
    ("--effects", false),
    ("--list-rules", false),
    ("--jsonl", false),
    ("--deny", true),
];
const VERIFY_SPEC: Spec = &[
    ("--profile", true),
    ("--all-profiles", false),
    ("--jsonl", false),
    ("--deny", true),
];

/// Reject unrecognized options before dispatching: a typo like
/// `--instruction` must abort, not silently run the defaults.
fn check_args(cmd: &str, args: &[String], spec: Spec) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match spec.iter().find(|(name, _)| name == a) {
            Some((name, true)) => {
                if i + 1 >= args.len() {
                    return Err(format!("vax780 {cmd}: option '{name}' requires a value"));
                }
                i += 2;
            }
            Some((_, false)) => i += 1,
            None if a.starts_with("--") => {
                return Err(format!("vax780 {cmd}: unrecognized option '{a}'"));
            }
            None => return Err(format!("vax780 {cmd}: unexpected argument '{a}'")),
        }
    }
    Ok(())
}

fn checked(
    cmd: impl Fn(&[String]) -> ExitCode,
    name: &str,
    args: &[String],
    spec: Spec,
) -> ExitCode {
    match check_args(name, args, spec) {
        Ok(()) => cmd(args),
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable option, in order.
fn opt_all<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// A numeric option's value, or `default` when the option is absent. A
/// value that does not parse is an error naming the flag and the value,
/// never a silent fall back to the default.
fn num_opt<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("{name} wants a non-negative integer, got '{s}'")),
    }
}

/// Unwrap an option-parsing result, or print its error and fail the
/// subcommand.
macro_rules! or_fail {
    ($result:expr) => {
        match $result {
            Ok(value) => value,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
}

/// Worker-pool size from `--jobs`/`--serial` (`None` = library default).
fn jobs_arg(args: &[String]) -> Result<Option<usize>, String> {
    if flag(args, "--serial") {
        return Ok(Some(1));
    }
    match opt(args, "--jobs") {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("--jobs wants a positive integer, got '{s}'")),
        },
    }
}

fn parse_kind(name: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
}

fn print_analysis(analysis: &Analysis) {
    let report = StudyReport::new(analysis);
    println!(
        "instructions {}   cycles {}   CPI {:.3}\n",
        analysis.instructions(),
        analysis.total_cycles(),
        analysis.cpi()
    );
    println!("{}", report.rendered_tables);
    println!("=== paper vs measured ===");
    println!("{}", report.comparison_table());
}

/// The workloads `--workload NAME|all` names.
fn kinds_arg(workload: &str) -> Result<Vec<WorkloadKind>, String> {
    if workload == "all" {
        return Ok(WorkloadKind::ALL.to_vec());
    }
    parse_kind(workload)
        .map(|kind| vec![kind])
        .ok_or_else(|| format!("unknown workload '{workload}'; try `vax780 list`"))
}

/// Measure one workload or the five-workload composite as a campaign of
/// one job per workload ("enqueue, then drain"; with `--checkpoint FILE`
/// the journal is FILE, so a killed campaign resumes from it), then
/// print every table of the summed histogram.
fn cmd_run(args: &[String]) -> ExitCode {
    use vax_serve::{run_campaign, JobSpec};

    let instructions: u64 = or_fail!(num_opt(args, "--instructions", 200_000));
    let warmup: u64 = or_fail!(num_opt(args, "--warmup", 30_000));
    let workload = opt(args, "--workload").unwrap_or("all");
    let jobs = or_fail!(jobs_arg(args));
    let kinds = or_fail!(kinds_arg(workload));
    let specs: Vec<JobSpec> = kinds
        .iter()
        .map(|&kind| JobSpec {
            instructions,
            warmup,
            decode_overlap: flag(args, "--decode-overlap"),
            ..JobSpec::new(kind)
        })
        .collect();

    eprintln!(
        "running {workload}: {} workload(s) x {instructions} instructions ...",
        specs.len()
    );
    let checkpoint = opt(args, "--checkpoint").map(std::path::Path::new);
    let campaign =
        or_fail!(run_campaign(&specs, checkpoint, jobs).map_err(|e| format!("vax780 run: {e}")));
    for r in &campaign.results {
        eprintln!("  {:<20} CPI {:.2}", r.name, r.analysis().cpi());
    }
    if flag(args, "--metrics") {
        println!("=== campaign self-metrics ===");
        println!("{}\n", campaign.metrics);
    }
    let composite = MeasuredWorkload::composite(&campaign.results);
    print_analysis(&composite.analysis());
    if let Some(path) = opt(args, "--save-histogram") {
        let text = upc_monitor::codec::to_text_with_counters(
            &composite.histogram,
            &composite.counters.to_pairs(),
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to save histogram to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("histogram saved to {path}");
    }
    ExitCode::SUCCESS
}

/// Re-measure the composite under a grid of machine ablations (§6) and
/// print the per-point CPI/stall breakdown, with optional CSV/JSONL
/// export and host-side self-metrics for the worker pool.
fn cmd_sweep(args: &[String]) -> ExitCode {
    let instructions: u64 = or_fail!(num_opt(args, "--instructions", 50_000));
    let warmup: u64 = or_fail!(num_opt(args, "--warmup", 15_000));
    let jobs = or_fail!(jobs_arg(args));
    let kinds = or_fail!(kinds_arg(opt(args, "--workload").unwrap_or("all")));

    let axis_names = opt_all(args, "--axis");
    let grid = if axis_names.is_empty() {
        SweepGrid::all()
    } else {
        let mut axes = Vec::new();
        for name in axis_names {
            let Some(axis) = SweepAxis::parse(name) else {
                eprintln!(
                    "unknown sweep axis '{name}' (want one of: {})",
                    SweepAxis::ALL.map(SweepAxis::name).join(", ")
                );
                return ExitCode::FAILURE;
            };
            axes.push(axis);
        }
        SweepGrid::with_axes(&axes)
    };

    eprintln!(
        "sweeping {} points x {} workload(s) x {instructions} instructions ...",
        grid.len(),
        kinds.len()
    );
    let (rows, metrics) =
        or_fail!(
            vax_serve::campaign::sweep(&grid, &kinds, instructions, warmup, jobs)
                .map_err(|e| format!("vax780 sweep: {e}"))
        );

    println!("=== configuration sweep ===");
    print!("{}", vax_analysis::sweep::render_table(&rows));

    for (path, text, what) in [
        opt(args, "--csv").map(|p| (p, vax_analysis::sweep::to_csv(&rows), "CSV")),
        opt(args, "--jsonl").map(|p| (p, vax_analysis::sweep::to_jsonl(&rows), "JSONL")),
    ]
    .into_iter()
    .flatten()
    {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {what} to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("{what} written to {path}");
    }

    if flag(args, "--metrics") {
        println!("\n=== sweep self-metrics ===");
        println!("{metrics}");
    }
    ExitCode::SUCCESS
}

/// Parse the worker-pool options shared by `serve` and offline
/// `drain`: queue path, workers, capacity, retry, per-attempt timeout.
fn pool_setup(args: &[String]) -> Result<vax_serve::ServeConfig, String> {
    use vax_serve::ServeConfig;

    let default = ServeConfig::default();
    let jobs = pool_jobs_arg(args)?;
    // `--retry N` is N retries after the first attempt.
    let retries = num_opt(args, "--retry", default.retry.max_attempts - 1)?;
    let capacity = match opt(args, "--capacity") {
        None => None,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err(format!("--capacity wants a positive integer, got '{s}'")),
        },
    };
    let client_quota = match opt(args, "--client-quota") {
        None => None,
        Some(s) => match s.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                return Err(format!(
                    "--client-quota wants a positive integer, got '{s}'"
                ))
            }
        },
    };
    let compact_every = match opt(args, "--compact-every") {
        None => None,
        Some(s) => match s.parse::<usize>() {
            Ok(n) => Some(n),
            _ => {
                return Err(format!(
                    "--compact-every wants a non-negative integer (0 = never), got '{s}'"
                ))
            }
        },
    };
    let timeout = timeout_arg(args)?;
    let config = ServeConfig {
        journal: opt(args, "--queue").unwrap_or("queue.journal").into(),
        workers: jobs.unwrap_or(default.workers),
        capacity: capacity.unwrap_or(default.capacity),
        client_quota,
        compact_every: compact_every.unwrap_or(default.compact_every),
        retry: RetryPolicy::from_retries(retries),
        timeout,
        drain_on_start: false,
    };
    Ok(config)
}

/// Worker-pool size for the queue commands: like [`jobs_arg`] but `0`
/// is legal — a listening server with `--jobs 0` runs no local workers
/// and leaves all execution to remote `vax780 worker` processes.
fn pool_jobs_arg(args: &[String]) -> Result<Option<usize>, String> {
    if flag(args, "--serial") {
        return Ok(Some(1));
    }
    match opt(args, "--jobs") {
        None => Ok(None),
        Some(s) => match s.parse::<usize>() {
            Ok(n) => Ok(Some(n)),
            _ => Err(format!("--jobs wants a non-negative integer, got '{s}'")),
        },
    }
}

/// Per-attempt deadline from `--timeout-secs`.
fn timeout_arg(args: &[String]) -> Result<Option<std::time::Duration>, String> {
    match opt(args, "--timeout-secs") {
        None => Ok(None),
        Some(s) => match s.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(Some(std::time::Duration::from_secs(n))),
            _ => Err(format!(
                "--timeout-secs wants a positive integer of seconds, got '{s}'"
            )),
        },
    }
}

/// Long-running campaign server: replay the queue journal, listen on
/// `--socket`, shard jobs across the worker pool, and keep every
/// state transition durable. Exits when a client sends `drain` or
/// `shutdown`; nonzero if any job settled as failed.
fn cmd_serve(args: &[String]) -> ExitCode {
    use vax_serve::{run_server, Endpoint, InProcessExecutor};

    let config = or_fail!(pool_setup(args));
    let Some(socket) = opt(args, "--socket") else {
        eprintln!("serve wants --socket PATH|tcp:ADDR (offline settling is `drain --queue FILE`)");
        return ExitCode::FAILURE;
    };
    let endpoint = Endpoint::parse(socket);
    eprintln!(
        "vax780 serve: queue {} on {endpoint} ({} worker(s), capacity {})",
        config.journal.display(),
        config.workers,
        config.capacity
    );
    match run_server(&config, Some(&endpoint), Arc::new(InProcessExecutor)) {
        Ok(report) => {
            println!("settled: {} done, {} failed", report.done, report.failed);
            if flag(args, "--metrics") {
                println!("\n=== serve self-metrics ===");
                println!("{}", report.metrics);
            }
            if report.failed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("vax780 serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Append jobs to a queue: over `--socket` through a live server's
/// backpressure, or directly into a `--queue` journal while no server
/// owns it. Every spec is parsed and validated before the first one
/// is enqueued, so a typo admits nothing.
fn cmd_enqueue(args: &[String]) -> ExitCode {
    use std::time::Duration;
    use vax_serve::{Client, Endpoint, JobSpec, Journal};

    let lines = opt_all(args, "--spec");
    if lines.is_empty() {
        eprintln!("enqueue wants at least one --spec LINE (see `vax780` usage for the grammar)");
        return ExitCode::FAILURE;
    }
    let client_name = opt(args, "--client").unwrap_or("");
    if !client_name.is_empty() && !vax_serve::valid_client_name(client_name) {
        eprintln!("bad --client '{client_name}': one token of [A-Za-z0-9._@-], at most 64 bytes");
        return ExitCode::FAILURE;
    }
    let mut specs = Vec::new();
    for line in &lines {
        match JobSpec::parse(line).and_then(|s| s.validate().map(|()| s)) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("bad --spec '{line}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match (opt(args, "--queue"), opt(args, "--socket")) {
        (Some(_), Some(_)) => {
            eprintln!("enqueue wants exactly one of --queue or --socket, not both");
            ExitCode::FAILURE
        }
        (None, None) => {
            eprintln!("enqueue wants --queue FILE or --socket PATH|tcp:ADDR");
            ExitCode::FAILURE
        }
        (Some(queue), None) => {
            let mut journal = match Journal::open(std::path::Path::new(queue)) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for w in journal.warnings() {
                eprintln!("vax780 enqueue: queue journal {queue}: {w}");
            }
            for spec in &specs {
                match journal.append_enqueue_for(client_name, spec) {
                    Ok(id) => println!("enqueued {id}"),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        (None, Some(socket)) => {
            let client = Client::new(Endpoint::parse(socket), Duration::from_secs(5));
            for spec in &specs {
                let line = spec.render();
                let request = if client_name.is_empty() {
                    format!("enqueue {line}")
                } else {
                    format!("enqueue client={client_name} {line}")
                };
                match client.request_line(&request) {
                    Ok(reply) => match reply.strip_prefix("ok ") {
                        Some(id) => println!("enqueued {id}"),
                        None => {
                            eprintln!("server rejected '{line}': {reply}");
                            return ExitCode::FAILURE;
                        }
                    },
                    Err(e) => {
                        eprintln!("enqueue over {socket}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}

/// Offline readers (`status`, `drain` and `compact` with `--queue`)
/// need a journal that exists: opening a missing path would create an
/// empty queue, report on it and leave the file behind. `enqueue
/// --queue`, `serve` and `run --checkpoint` create the journal.
fn existing_queue(command: &str, queue: &str) -> Result<(), String> {
    match std::path::Path::new(queue).try_exists() {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "vax780 {command}: queue journal {queue} does not exist"
        )),
        Err(e) => Err(format!("vax780 {command}: queue journal {queue}: {e}")),
    }
}

/// Show the queue: per-job state plus done/failed counts, either from
/// a live server (`--socket`) or straight from a journal (`--queue`).
fn cmd_status(args: &[String]) -> ExitCode {
    use std::time::Duration;
    use vax_serve::{Client, Endpoint, Journal};

    match (opt(args, "--queue"), opt(args, "--socket")) {
        (Some(_), Some(_)) => {
            eprintln!("status wants exactly one of --queue or --socket, not both");
            ExitCode::FAILURE
        }
        (None, None) => {
            eprintln!("status wants --queue FILE or --socket PATH|tcp:ADDR");
            ExitCode::FAILURE
        }
        (None, Some(socket)) => {
            let client = Client::new(Endpoint::parse(socket), Duration::from_secs(5));
            match client.request_stream("status", &mut std::io::stdout()) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("status over {socket}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (Some(queue), None) => {
            or_fail!(existing_queue("status", queue));
            let journal = match Journal::open(std::path::Path::new(queue)) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for w in journal.warnings() {
                eprintln!("vax780 status: queue journal {queue}: {w}");
            }
            // Written through the io layer, not println!: a consumer
            // like `status | head` closing the pipe early is a clean
            // stop, not a panic.
            use std::io::Write;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            let (pending, done, failed) = journal.counts();
            let mut write_jobs = || -> std::io::Result<()> {
                writeln!(
                    out,
                    "queue {queue}: pending {pending} done {done} failed {failed}"
                )?;
                for job in journal.job_specs() {
                    let (id, state, spec) =
                        job.map_err(|e| std::io::Error::other(e.to_string()))?;
                    writeln!(out, "job {id} {} {spec}", state.name())?;
                }
                Ok(())
            };
            match write_jobs() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("status: writing to stdout: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// A pass-through writer that counts streamed result lines containing
/// `"failed":true` — drain's exit code, computed on the fly so the
/// stream never has to be buffered in memory.
struct FailCount<W: std::io::Write> {
    inner: W,
    partial: Vec<u8>,
    failed: usize,
}

impl<W: std::io::Write> FailCount<W> {
    fn new(inner: W) -> Self {
        FailCount {
            inner,
            partial: Vec::new(),
            failed: 0,
        }
    }

    fn scan(&mut self, line: &[u8]) {
        const NEEDLE: &[u8] = b"\"failed\":true";
        if line.windows(NEEDLE.len()).any(|w| w == NEEDLE) {
            self.failed += 1;
        }
    }

    /// Count any unterminated final line and return the failed total.
    fn finish(mut self) -> usize {
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.scan(&line);
        }
        self.failed
    }
}

impl<W: std::io::Write> std::io::Write for FailCount<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut rest = buf;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            self.partial.extend_from_slice(&rest[..pos]);
            let line = std::mem::take(&mut self.partial);
            self.scan(&line);
            rest = &rest[pos + 1..];
        }
        self.partial.extend_from_slice(rest);
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Open drain's result sink: `--out FILE` or stdout, always buffered.
fn drain_sink(args: &[String]) -> Result<Box<dyn std::io::Write>, String> {
    use std::io::BufWriter;
    match opt(args, "--out") {
        Some(path) => std::fs::File::create(path)
            .map(|f| Box::new(BufWriter::new(f)) as Box<dyn std::io::Write>)
            .map_err(|e| format!("failed to write results to {path}: {e}")),
        None => Ok(Box::new(BufWriter::new(std::io::stdout()))),
    }
}

/// Settle every job and stream the merged result JSONL (id order,
/// bit-deterministic) to `--out` or stdout without holding it in
/// memory. `--socket` asks a live server to finish and exit;
/// `--queue` runs an offline pool over the journal — the resume path
/// after a crash. Nonzero if any job settled as failed.
fn cmd_drain(args: &[String]) -> ExitCode {
    use std::io::Write;
    use std::time::Duration;
    use vax_serve::{run_server, Client, Endpoint, InProcessExecutor, Journal};

    // Pool flags are validated up front even in `--socket` mode, where
    // the live server's own pool settings apply and these are unused.
    let mut config = or_fail!(pool_setup(args));
    match (opt(args, "--queue"), opt(args, "--socket")) {
        (Some(_), Some(_)) => {
            eprintln!("drain wants exactly one of --queue or --socket, not both");
            ExitCode::FAILURE
        }
        (None, None) => {
            eprintln!("drain wants --queue FILE or --socket PATH|tcp:ADDR");
            ExitCode::FAILURE
        }
        (None, Some(socket)) => {
            let client = Client::new(Endpoint::parse(socket), Duration::from_secs(5));
            let mut counter = FailCount::new(or_fail!(drain_sink(args)));
            let streamed = match client.request_stream("drain", &mut counter) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("drain over {socket}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = counter.flush() {
                eprintln!("drain: writing results: {e}");
                return ExitCode::FAILURE;
            }
            let failed = counter.finish();
            eprintln!("drained {streamed} result(s), {failed} failed");
            if failed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Some(queue), None) => {
            or_fail!(existing_queue("drain", queue));
            config.drain_on_start = true;
            match run_server(&config, None, Arc::new(InProcessExecutor)) {
                Ok(report) => {
                    // The pool has exited; reopen the settled journal
                    // and stream results straight from its segments.
                    let stream = || -> Result<usize, String> {
                        let journal = Journal::open(std::path::Path::new(queue))
                            .map_err(|e| e.to_string())?;
                        let mut out = drain_sink(args)?;
                        let n = journal
                            .stream_results(&mut out)
                            .map_err(|e| e.to_string())?;
                        out.flush()
                            .map_err(|e| format!("drain: writing results: {e}"))?;
                        Ok(n)
                    };
                    if let Err(e) = stream() {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("settled: {} done, {} failed", report.done, report.failed);
                    if report.failed > 0 {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => {
                    eprintln!("vax780 drain: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// Remote worker: connect to a listening server (usually over TCP),
/// claim jobs one at a time, run each locally, and send the result
/// back on the claim connection. Exits cleanly when the server goes
/// away or replies `gone`. A crash here costs the server one
/// retryable attempt, never a job.
fn cmd_worker(args: &[String]) -> ExitCode {
    use std::io::{BufRead, Write};
    use std::time::Duration;
    use vax_serve::queue::{render_result_blob, ExecError};
    use vax_serve::{Endpoint, Executor, InProcessExecutor, JobSpec};

    let Some(connect) = opt(args, "--connect") else {
        eprintln!("worker wants --connect tcp:HOST:PORT (or a Unix socket path)");
        return ExitCode::FAILURE;
    };
    let timeout = or_fail!(timeout_arg(args));
    let endpoint = Endpoint::parse(connect);
    eprintln!("vax780 worker: claiming from {endpoint}");
    let (mut done, mut failed) = (0usize, 0usize);
    loop {
        // One claim per connection: the server arms the attempt's
        // deadline on the claim's socket and closes it after the ack.
        let conn = match endpoint.connect(Duration::from_secs(5)) {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("vax780 worker: {endpoint}: {e}");
                break;
            }
        };
        let Ok((mut reader, mut writer)) = conn.split() else {
            eprintln!("vax780 worker: cannot split connection");
            return ExitCode::FAILURE;
        };
        let mut reply = String::new();
        let ok = writeln!(writer, "claim")
            .and_then(|()| writer.flush())
            .and_then(|()| reader.read_line(&mut reply));
        match ok {
            Ok(0) | Err(_) => break, // server went away between claims
            Ok(_) => {}
        }
        let reply = reply.trim_end();
        if reply == "idle" {
            std::thread::sleep(Duration::from_millis(200));
            continue;
        }
        if reply == "gone" || reply.is_empty() {
            break;
        }
        let Some(rest) = reply.strip_prefix("job ") else {
            eprintln!("vax780 worker: unexpected reply `{reply}`");
            return ExitCode::FAILURE;
        };
        let Some((id, spec_line)) = rest.split_once(' ') else {
            eprintln!("vax780 worker: malformed job line `{reply}`");
            return ExitCode::FAILURE;
        };
        let outcome = JobSpec::parse(spec_line)
            .map_err(|e| ExecError::Failed(format!("bad spec: {e}")))
            .and_then(|spec| InProcessExecutor.run(&spec, timeout));
        let sent = match &outcome {
            Ok(m) => {
                done += 1;
                write!(writer, "result {id}\n{}", render_result_blob(m))
            }
            Err(e) => {
                failed += 1;
                let msg = e.to_string().replace('\n', " ");
                eprintln!("vax780 worker: job {id}: {msg}");
                // A workload fault would fault again on any worker: the
                // server settles a `fault` at once and retries a `fail`.
                let verb = match e {
                    ExecError::Fault(_) => "fault",
                    _ => "fail",
                };
                writeln!(writer, "{verb} {id} {msg}")
            }
        }
        .and_then(|()| writer.flush());
        if sent.is_err() {
            break; // the server will retry the attempt elsewhere
        }
        // Wait for the ack so the next claim sees the settled state.
        let mut ack = String::new();
        if reader.read_line(&mut ack).is_err() {
            break;
        }
    }
    eprintln!("vax780 worker: ran {done} job(s), {failed} failed attempt(s)");
    ExitCode::SUCCESS
}

/// Compact the journal's settled jobs now: offline against `--queue`,
/// or over `--socket` by asking a live server.
fn cmd_compact(args: &[String]) -> ExitCode {
    use std::time::Duration;
    use vax_serve::{Client, Endpoint, Journal};

    match (opt(args, "--queue"), opt(args, "--socket")) {
        (Some(_), Some(_)) => {
            eprintln!("compact wants exactly one of --queue or --socket, not both");
            ExitCode::FAILURE
        }
        (None, None) => {
            eprintln!("compact wants --queue FILE or --socket PATH|tcp:ADDR");
            ExitCode::FAILURE
        }
        (None, Some(socket)) => {
            let client = Client::new(Endpoint::parse(socket), Duration::from_secs(5));
            match client.request_line("compact") {
                Ok(reply) if reply.starts_with("ok") => {
                    println!("{reply}");
                    ExitCode::SUCCESS
                }
                Ok(reply) => {
                    eprintln!("compact over {socket}: {reply}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("compact over {socket}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (Some(queue), None) => {
            or_fail!(existing_queue("compact", queue));
            let mut journal = match Journal::open(std::path::Path::new(queue)) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for w in journal.warnings() {
                eprintln!("vax780 compact: queue journal {queue}: {w}");
            }
            let folded = journal.settled_in_tail();
            if let Err(e) = journal.compact() {
                eprintln!("vax780 compact: {e}");
                return ExitCode::FAILURE;
            }
            let (pending, done, failed) = journal.counts();
            println!(
                "compacted {queue}: folded {folded} settled record(s); \
                 {pending} pending, {done} done, {failed} failed"
            );
            ExitCode::SUCCESS
        }
    }
}

/// A workload measured with both instruments attached from boot.
struct Instrumented {
    machine: vax_workloads::Machine,
    tracer: vax_trace::Tracer,
    /// Host time per phase.
    metrics: vax_trace::SelfMetrics,
    /// Trace vs histogram vs hardware counters over the whole run.
    reconciliation: vax_analysis::reconcile::Reconciliation,
}

/// Measure one workload with both instruments attached from boot — the
/// µPC board and the event tracer tee'd off the same [`CycleSink`] feed
/// — through its warmup and measure phases (an empty phase is skipped),
/// then reconcile trace vs histogram vs hardware counters. A fault
/// `plan` is armed at the boundary between the phases, so its `@cycle`
/// offsets count from the first measured cycle, exactly as
/// `Experiment::fault_plan`. `cmd` names the subcommand in a build
/// error.
fn measure_instrumented(
    cmd: &str,
    kind: WorkloadKind,
    warmup: u64,
    instructions: u64,
    trace_limit: usize,
    plan: Option<&vax_fault::FaultPlan>,
) -> Result<Instrumented, String> {
    use upc_monitor::{Command, HistogramBoard};

    let mut machine = vax_workloads::try_build_machine(&profile(kind))
        .map_err(|e| format!("vax780 {cmd}: {e}"))?;
    // Baseline after build: the counter deltas from here cover exactly
    // the cycles both sinks observe.
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = vax_trace::Tracer::with_capacity(trace_limit);
    let mut metrics = vax_trace::SelfMetrics::new();
    {
        let mut tee = (&mut board, &mut tracer);
        for (phase, count) in [("warmup", warmup), ("measure", instructions)] {
            if let (Some(plan), "measure") = (plan, phase) {
                let engine = vax_fault::FaultEngine::new(plan);
                machine.cpu.mem_mut().set_fault_hook(Box::new(engine));
                let now = machine.cpu.now();
                machine.cpu.mem_mut().arm_fault_hook(now);
            }
            if count == 0 {
                continue;
            }
            metrics.begin_phase(phase, machine.cpu.now(), machine.cpu.instructions());
            machine
                .run_phase(phase, count, &mut tee)
                .map_err(|e| format!("machine stopped during {phase}: {e:?}"))?;
            metrics.end_phase(machine.cpu.now(), machine.cpu.instructions());
        }
    }
    board.execute(Command::Stop);

    let hw = machine.cpu.mem().counters().delta_since(&hw_base);
    let reconciliation = vax_analysis::reconcile::reconcile(
        &tracer,
        &board.snapshot(),
        &hw,
        machine.cpu.pending_ib_tb_miss(),
    );
    Ok(Instrumented {
        machine,
        tracer,
        metrics,
        reconciliation,
    })
}

/// Print the reconciliation; a disagreement fails the subcommand, since
/// the instruments must tell one story.
fn print_reconciliation(run: &Instrumented) -> bool {
    println!("=== instrument reconciliation ===");
    println!("{}", run.reconciliation);
    run.reconciliation.is_ok()
}

/// Run one workload with both instruments attached from boot, export
/// the trace, and reconcile the instruments. Any disagreement is a
/// nonzero exit.
fn cmd_trace(args: &[String]) -> ExitCode {
    let instructions: u64 = or_fail!(num_opt(args, "--instructions", 50_000));
    let warmup: u64 = or_fail!(num_opt(args, "--warmup", 10_000));
    let workload = opt(args, "--workload").unwrap_or("timesharing-light");
    let Some(kind) = parse_kind(workload) else {
        eprintln!("unknown workload '{workload}'; try `vax780 list`");
        return ExitCode::FAILURE;
    };
    let format = opt(args, "--trace-format").unwrap_or("jsonl");
    if format != "jsonl" && format != "chrome" {
        eprintln!("unknown trace format '{format}' (want jsonl or chrome)");
        return ExitCode::FAILURE;
    }
    let limit: usize = or_fail!(num_opt(args, "--trace-limit", vax_trace::DEFAULT_CAPACITY));

    eprintln!("tracing {workload}: {warmup} warmup + {instructions} measured instructions ...");
    let mut run = or_fail!(measure_instrumented(
        "trace",
        kind,
        warmup,
        instructions,
        limit,
        None
    ));
    let (cpu, tracer, metrics) = (&run.machine.cpu, &run.tracer, &mut run.metrics);

    if let Some(path) = opt(args, "--trace-out") {
        metrics.begin_phase("export", cpu.now(), cpu.instructions());
        let result = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            if format == "chrome" {
                vax_trace::export::write_chrome_trace(tracer, &mut w)
            } else {
                vax_trace::export::write_jsonl(tracer, &mut w)
            }
        });
        metrics.end_phase(cpu.now(), cpu.instructions());
        if let Err(e) = result {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{} events written to {path} ({format}, {} dropped by the ring)",
            tracer.len(),
            tracer.dropped()
        );
    }

    if flag(args, "--metrics") {
        println!("=== simulator self-metrics ===");
        println!("{metrics}\n");
    }
    if print_reconciliation(&run) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload under a deterministic fault plan with both
/// instruments attached, list the faults that fired, reconcile the
/// instruments, and (with `--report`) measure the fault-sensitivity
/// table: a clean baseline plus one injected run per fault class
/// present in the plan.
fn cmd_inject(args: &[String]) -> ExitCode {
    use vax_fault::{FaultClass, FaultPlan};

    let instructions: u64 = or_fail!(num_opt(args, "--instructions", 50_000));
    let warmup: u64 = or_fail!(num_opt(args, "--warmup", 10_000));
    let workload = opt(args, "--workload").unwrap_or("timesharing-light");
    let Some(kind) = parse_kind(workload) else {
        eprintln!("unknown workload '{workload}'; try `vax780 list`");
        return ExitCode::FAILURE;
    };

    let plan = if let Some(path) = opt(args, "--fault-plan") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vax780 inject: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match FaultPlan::parse(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("vax780 inject: cannot parse {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(list) = opt(args, "--faults") {
        let seed: u64 = match opt(args, "--seed").map(str::parse).transpose() {
            Ok(s) => s.unwrap_or(780),
            Err(_) => {
                eprintln!("--seed wants an integer");
                return ExitCode::FAILURE;
            }
        };
        let mut classes = Vec::new();
        for name in list.split(',') {
            let Some(class) = FaultClass::parse(name.trim()) else {
                eprintln!(
                    "unknown fault class '{}' (want one of: {})",
                    name.trim(),
                    FaultClass::ALL.map(FaultClass::name).join(", ")
                );
                return ExitCode::FAILURE;
            };
            classes.push(class);
        }
        // 3 faults per class, scattered over the first chunk of the
        // measured region (CPI > 3, so `3 * instructions` cycles have
        // always elapsed before measurement ends).
        FaultPlan::seeded(&classes, seed, 3, instructions.saturating_mul(3))
    } else {
        eprintln!("inject requires --fault-plan FILE or --faults CLASS[,CLASS...]");
        return ExitCode::FAILURE;
    };
    if plan.is_empty() {
        eprintln!("vax780 inject: the fault plan schedules nothing");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "injecting {} fault(s) into {workload}: {warmup} warmup + {instructions} measured \
         instructions ...",
        plan.faults.len()
    );
    let run = or_fail!(measure_instrumented(
        "inject",
        kind,
        warmup,
        instructions,
        vax_trace::DEFAULT_CAPACITY,
        Some(&plan)
    ));

    let fired = run.machine.cpu.mem().faults_fired();
    println!("=== injected faults ===");
    if fired.is_empty() {
        println!("(no scheduled fault matured inside the measured window)");
    }
    for f in &fired {
        println!("fired {} @ cycle {}", f.class, f.at_cycle);
    }
    println!();
    if !print_reconciliation(&run) {
        return ExitCode::FAILURE;
    }

    if flag(args, "--report") {
        eprintln!("measuring clean baseline + one run per fault class ...");
        let experiment = |p: Option<FaultPlan>| {
            let mut e = Experiment::new(kind)
                .warmup(warmup)
                .instructions(instructions);
            if let Some(p) = p {
                e = e.fault_plan(p);
            }
            e.run().analysis()
        };
        let baseline = experiment(None);
        let mut injected = Vec::new();
        for class in FaultClass::ALL {
            let subset: Vec<_> = plan
                .faults
                .iter()
                .copied()
                .filter(|f| f.class == class)
                .collect();
            if subset.is_empty() {
                continue;
            }
            injected.push((class, experiment(Some(FaultPlan { faults: subset }))));
        }
        let sensitivity = vax_analysis::FaultSensitivity::new(&baseline, &injected);
        println!("=== fault sensitivity ===");
        println!("{sensitivity}");
    }
    ExitCode::SUCCESS
}

/// Benchmark the simulator: the naive loop against the default loop
/// over all five workloads, with bit-identity verification of every
/// instrument. Nonzero exit on any divergence — speed is only reported
/// once the loops are proven to be the same machine.
fn cmd_bench(args: &[String]) -> ExitCode {
    let mut spec = vax_perf::BenchSpec::default();
    spec.timing_instructions = or_fail!(num_opt(args, "--instructions", spec.timing_instructions));
    spec.trace_instructions = or_fail!(num_opt(
        args,
        "--trace-instructions",
        spec.trace_instructions
    ));
    spec.warmup = or_fail!(num_opt(args, "--warmup", spec.warmup));
    if let Some(s) = opt(args, "--repeat") {
        match s.parse() {
            Ok(n) if n >= 1 => spec.repeat = n,
            _ => {
                eprintln!("--repeat wants a positive integer, got '{s}'");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "benchmarking: 5 workloads x {} timed (best of {}) + {} traced instructions, \
         naive vs default ...",
        spec.timing_instructions, spec.repeat, spec.trace_instructions
    );
    let report = vax_perf::run_bench_with_progress(&spec, |line| eprintln!("  {line}"));
    println!("=== simulator benchmark (naive vs default loop) ===");
    print!("{}", report.render_table());
    if let Some(path) = opt(args, "--json") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {path}");
    }
    if report.is_equivalent() {
        println!("equivalence: OK (histograms, counters, and trace streams bit-identical)");
        ExitCode::SUCCESS
    } else {
        println!("equivalence: FAILED");
        for d in &report.divergences {
            println!("  divergence: {d}");
        }
        ExitCode::FAILURE
    }
}

/// `vax780 probe`: measurement-driven self-characterization. Runs the
/// full coverage campaign (or a `--pair` subset), infers per-opcode and
/// per-mode issue tables from calibrated histogram deltas, and refutes
/// or confirms the static model. Nonzero exit when any error-severity
/// disagreement survives the allowlist and `--deny` promotion.
fn cmd_probe(args: &[String]) -> ExitCode {
    use vax_lint::Rule;
    use vax_probe::{run_probe, PairKey, ProbeConfig};

    let deny: Vec<String> = opt_all(args, "--deny")
        .into_iter()
        .map(str::to_string)
        .collect();
    for d in &deny {
        if d != "all" && Rule::parse(d).is_none() {
            eprintln!("vax780 probe: unknown rule '{d}' for --deny (or 'all')");
            return ExitCode::FAILURE;
        }
    }

    let mut config = ProbeConfig::default();
    config.unroll = or_fail!(num_opt(args, "--unroll", config.unroll));
    config.iters = or_fail!(num_opt(args, "--iters", config.iters));
    let pair_args = opt_all(args, "--pair");
    if !pair_args.is_empty() {
        let mut filter = std::collections::BTreeSet::new();
        for text in pair_args {
            let Some(pair) = PairKey::parse(text) else {
                eprintln!("vax780 probe: bad pair '{text}' (want <mnemonic>:<class-key|none>)");
                return ExitCode::FAILURE;
            };
            filter.insert(pair);
        }
        config.filter = Some(filter);
    }
    if let Some(path) = opt(args, "--allowlist") {
        match std::fs::read_to_string(path) {
            Ok(text) => config.allow_text = text,
            Err(e) => {
                eprintln!("vax780 probe: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match &config.filter {
        Some(filter) => eprintln!("probing {} pair(s) ...", filter.len()),
        None => {
            eprintln!("probing full coverage (every opcode x mode pair, plus mode references) ...")
        }
    }
    let mut outcome = match run_probe(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vax780 probe: {e}");
            return ExitCode::FAILURE;
        }
    };

    let host = vax_trace::HostStamp::collect();
    outcome.tables.stamp("cpu-model", &host.cpu_model);
    outcome.tables.stamp("rustc", &host.rustc);
    outcome.tables.stamp("git-rev", &host.git_rev);
    outcome.tables.stamp("profile", &host.profile);
    outcome.tables.stamp("opt-level", &host.opt_level);

    let clean = outcome.tables.pairs.values().filter(|&&ok| ok).count();
    eprintln!(
        "probed {} pair(s): {clean} clean, {} op row(s), {} mode row(s)",
        outcome.tables.pairs.len(),
        outcome.tables.ops.len(),
        outcome.tables.modes.len()
    );

    if let Some(path) = opt(args, "--out") {
        if let Err(e) = std::fs::write(path, outcome.tables.to_text()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("inferred tables written to {path}");
    }
    let cs = ControlStore::build();
    for (path, text, what) in [
        opt(args, "--samples").map(|p| (p, outcome.agg.to_jsonl(&cs), "samples")),
        opt(args, "--folded").map(|p| (p, outcome.agg.to_folded(&cs), "folded samples")),
    ]
    .into_iter()
    .flatten()
    {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {what} to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("{what} written to {path}");
    }

    outcome.report.apply_deny(&deny);
    if flag(args, "--jsonl") {
        print!("{}", outcome.report.render_jsonl());
    } else {
        print!("{}", outcome.report.render_text());
    }
    if outcome.report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let Some(path) = opt(args, "--histogram") else {
        eprintln!("report requires --histogram FILE");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (hist, pairs) = match upc_monitor::codec::from_text_with_counters(&text) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let counters = vax_mem::HwCounters::from_pairs(pairs.iter().map(|(n, v)| (n.as_str(), *v)));
    let cs = ControlStore::build();
    let mut analysis = Analysis::new(&hist, &cs, &counters);
    if let Some(hint_text) = opt(args, "--instructions-hint") {
        let Ok(hint) = hint_text.parse::<u64>() else {
            eprintln!("--instructions-hint wants a positive integer, got '{hint_text}'");
            return ExitCode::FAILURE;
        };
        if hint == 0 {
            eprintln!("--instructions-hint wants a positive integer, got '0'");
            return ExitCode::FAILURE;
        }
        // Validate the hint against the histogram's own execute-entry
        // count: a hint that disagrees wildly means the caller is
        // re-analysing the wrong histogram.
        let derived = analysis.instructions();
        let deviation = (hint.abs_diff(derived)) as f64 / derived.max(1) as f64;
        if derived > 0 && deviation > 0.05 {
            eprintln!(
                "--instructions-hint {hint} disagrees with the histogram's \
                 execute-entry count {derived} by {:.1}% (>5%); refusing",
                100.0 * deviation
            );
            return ExitCode::FAILURE;
        }
        eprintln!("instruction count overridden: {derived} (histogram) -> {hint} (hint)");
        analysis = analysis.with_instructions(hint);
    }
    print_analysis(&analysis);
    if let Some(path) = opt(args, "--json") {
        let t8 = vax_analysis::tables::Table8::from_analysis(&analysis);
        let json = format!(
            "{{\n  \"host\": {},\n  \"instructions\": {},\n  \"cycles\": {},\n  \
             \"cpi\": {},\n  \"table8\": {}\n}}\n",
            vax_trace::HostStamp::collect().to_json(),
            analysis.instructions(),
            analysis.total_cycles(),
            analysis.cpi(),
            t8.to_json()
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("JSON report written to {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(args: &[String]) -> ExitCode {
    let workload = opt(args, "--workload").unwrap_or("timesharing-light");
    let Some(kind) = parse_kind(workload) else {
        eprintln!("unknown workload '{workload}'; try `vax780 list`");
        return ExitCode::FAILURE;
    };
    let lines: usize = or_fail!(num_opt(args, "--lines", 40));
    let function: usize = or_fail!(num_opt(args, "--function", 0));

    // Regenerate the first process's program exactly as the session does.
    let params = profile(kind);
    let plans = match vax_workloads::plan_processes(&params) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vax780 disasm: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = &plans[0];
    let image = &plan.image;

    let start_va = if function == 0 {
        plan.entry
    } else if let Some(&f) = plan.functions.get(function - 1) {
        f
    } else {
        eprintln!("function index out of range (1..={})", plan.functions.len());
        return ExitCode::FAILURE;
    };
    let offset = (start_va - image.base) as usize;
    // Functions start with an entry-mask word, not an opcode.
    let skip = if function > 0 { 2 } else { 0 };
    println!(
        "; {} process 0, {} @ {start_va:#010x}",
        kind.name(),
        if function == 0 {
            "dispatcher".to_string()
        } else {
            format!("function {function}")
        }
    );
    if function > 0 {
        let mask = u16::from_le_bytes([image.bytes[offset], image.bytes[offset + 1]]);
        println!("{start_va:#010x}\t.entry mask={mask:#06x}");
    }
    for (pc, _, text) in
        vax_arch::disasm::disassemble(&image.bytes[offset + skip..], start_va + skip as u32)
            .into_iter()
            .take(lines)
    {
        println!("{pc:#010x}\t{text}");
    }
    ExitCode::SUCCESS
}

/// `vax780 lint`: run the static analyzers. The table audits always
/// run; `--profile`/`--all-profiles` additionally generate and lint
/// workload images, `--image` lints a serialized image file, and
/// `--effects` adds the continuation loop's effect audit. `--list-rules` prints
/// the rule catalog (id, default severity, one-line doc) and exits.
/// Exit status is nonzero when any error-severity finding remains
/// after `--deny` promotion.
fn cmd_lint(args: &[String]) -> ExitCode {
    use vax_lint::{ImageModel, Rule};

    if flag(args, "--list-rules") {
        for rule in Rule::ALL {
            if flag(args, "--jsonl") {
                println!(
                    "{{\"rule\": \"{}\", \"severity\": \"{}\", \"doc\": \"{}\"}}",
                    rule.id(),
                    rule.default_severity().label(),
                    rule.doc()
                );
            } else {
                println!(
                    "{:<22} {:<8} {}",
                    rule.id(),
                    rule.default_severity().label(),
                    rule.doc()
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    let deny: Vec<String> = opt_all(args, "--deny")
        .into_iter()
        .map(str::to_string)
        .collect();
    for d in &deny {
        if d != "all" && Rule::parse(d).is_none() {
            eprintln!("vax780 lint: unknown rule '{d}' for --deny (or 'all')");
            return ExitCode::FAILURE;
        }
    }

    let mut report = vax_lint::lint_tables();
    if flag(args, "--effects") {
        report.merge(vax_lint::lint_effects(&ControlStore::build()));
    }

    if let Some(path) = opt(args, "--image") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("vax780 lint: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let model = match ImageModel::parse(&text) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("vax780 lint: {path} is not a lint image: {e}");
                return ExitCode::FAILURE;
            }
        };
        report.merge(vax_lint::lint_image_model(&model, None));
    }

    let mut kinds: Vec<WorkloadKind> = Vec::new();
    if flag(args, "--all-profiles") {
        kinds.extend(WorkloadKind::ALL);
    } else if let Some(name) = opt(args, "--profile") {
        match parse_kind(name) {
            Some(kind) => kinds.push(kind),
            None => {
                eprintln!("unknown workload '{name}'; try `vax780 list`");
                return ExitCode::FAILURE;
            }
        }
    }
    for kind in &kinds {
        let params = profile(*kind);
        match vax_lint::lint_profile(&params) {
            Ok(r) => report.merge(r),
            Err(e) => {
                eprintln!("vax780 lint: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = opt(args, "--emit-image") {
        let kind = kinds
            .first()
            .copied()
            .unwrap_or(WorkloadKind::TimesharingLight);
        let params = profile(kind);
        let plans = match vax_workloads::plan_processes(&params) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("vax780 lint: {e}");
                return ExitCode::FAILURE;
            }
        };
        let model = ImageModel::from_process(params.name, &plans[0]);
        if let Err(e) = std::fs::write(path, model.render()) {
            eprintln!("vax780 lint: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} (process 0 of {})", params.name);
    }

    report.apply_deny(&deny);
    if flag(args, "--jsonl") {
        print!("{}", report.render_jsonl());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `vax780 verify`: audit the continuation loop's safety claim and
/// statically verify workload images by abstract interpretation. Always
/// runs the derived effect audit; then per profile: decode, SMC-freedom
/// and stack-depth verification. Exit status is nonzero when any
/// error-severity finding remains after `--deny` promotion.
fn cmd_verify(args: &[String]) -> ExitCode {
    use vax_lint::Rule;

    let deny: Vec<String> = opt_all(args, "--deny")
        .into_iter()
        .map(str::to_string)
        .collect();
    for d in &deny {
        if d != "all" && Rule::parse(d).is_none() {
            eprintln!("vax780 verify: unknown rule '{d}' for --deny (or 'all')");
            return ExitCode::FAILURE;
        }
    }

    let mut kinds: Vec<WorkloadKind> = Vec::new();
    if flag(args, "--all-profiles") {
        kinds.extend(WorkloadKind::ALL);
    } else if let Some(name) = opt(args, "--profile") {
        match parse_kind(name) {
            Some(kind) => kinds.push(kind),
            None => {
                eprintln!("unknown workload '{name}'; try `vax780 list`");
                return ExitCode::FAILURE;
            }
        }
    }
    if kinds.is_empty() {
        eprintln!("vax780 verify: need --profile NAME or --all-profiles");
        return ExitCode::FAILURE;
    }

    // The classifier the continuation loop leans on must itself be
    // sound, so the effect audit always runs first.
    let mut report = vax_lint::lint_effects(&ControlStore::build());
    for kind in kinds {
        match vax_lint::verify_profile(&profile(kind)) {
            Ok(r) => report.merge(r),
            Err(e) => {
                eprintln!("vax780 verify: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    report.apply_deny(&deny);
    if flag(args, "--jsonl") {
        print!("{}", report.render_jsonl());
    } else {
        print!("{}", report.render_text());
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
