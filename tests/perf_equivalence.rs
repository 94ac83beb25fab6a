//! The host-loop equivalence contract: the default loop, host fast
//! paths on (`CpuConfig::default`), must be *indistinguishable* from the
//! naive reference loop (`CpuConfig::naive_loop`) to everything that
//! observes the simulated machine — µPC histograms, hardware counters,
//! and the full trace event stream — across every workload profile,
//! while faults are being injected, and across a checkpoint/resume
//! boundary (a campaign whose queue journal was partly settled by one
//! loop must resume under the other without a bit of difference).

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use upc_monitor::{Command, HistogramBoard};
use vax780_core::{CompositeStudy, MeasuredWorkload, RetryPolicy};
use vax_cpu::CpuConfig;
use vax_fault::{FaultClass, FaultEngine, FaultPlan, FiredFault};
use vax_mem::HwCounters;
use vax_serve::queue::ExecError;
use vax_serve::{run_server, Executor, JobId, JobSpec, Journal, ServeConfig};
use vax_trace::{TraceEvent, Tracer};
use vax_workloads::{build_machine_with_config, profile, ProfileParams, WorkloadKind};

/// A scaled-down profile so each case runs in milliseconds (the same
/// shrink as `tests/fault_determinism.rs`).
fn small_profile(kind: WorkloadKind, seed_salt: u64) -> ProfileParams {
    let base = profile(kind);
    ProfileParams {
        processes: 3,
        functions_per_process: 8,
        slots_per_function: 20,
        scalar_bytes: 16 * 1024,
        terminal_users: 4,
        seed: base.seed ^ seed_salt,
        ..base
    }
}

/// Everything one observed run produces.
struct Observed {
    events: Vec<TraceEvent>,
    histogram: upc_monitor::Histogram,
    hw: HwCounters,
    fired: Vec<FiredFault>,
    pending_ib_tb_miss: bool,
    continued: u64,
    /// Instructions the continuation loop retired in the measured
    /// region alone (`continued` includes the warm-up).
    continued_measured: u64,
    reconciled: bool,
}

/// Warm up, optionally install+arm a fault engine at the measurement
/// boundary, and run the measured region under the board+tracer tee.
fn observed_run(
    params: &ProfileParams,
    config: CpuConfig,
    plan: Option<&FaultPlan>,
    warmup: u64,
    measured: u64,
) -> Observed {
    let mut machine = build_machine_with_config(params, config, vax_mem::MemConfig::default());
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = Tracer::new();
    let continued_before_measure;
    {
        let mut tee = (&mut board, &mut tracer);
        machine
            .run_phase("warmup", warmup, &mut tee)
            .expect("warmup runs");
        if let Some(plan) = plan {
            machine
                .cpu
                .mem_mut()
                .set_fault_hook(Box::new(FaultEngine::new(plan)));
            let now = machine.cpu.now();
            machine.cpu.mem_mut().arm_fault_hook(now);
        }
        continued_before_measure = machine.cpu.block_stats().replayed;
        machine
            .run_phase("measure", measured, &mut tee)
            .expect("measured region runs");
    }
    board.execute(Command::Stop);
    let histogram = board.snapshot();
    let hw = machine.cpu.mem().counters().delta_since(&hw_base);
    let reconciled = vax_analysis::reconcile::reconcile(
        &tracer,
        &histogram,
        &hw,
        machine.cpu.pending_ib_tb_miss(),
    )
    .is_ok();
    Observed {
        events: tracer.events().copied().collect(),
        histogram,
        hw,
        fired: machine.cpu.mem().faults_fired(),
        pending_ib_tb_miss: machine.cpu.pending_ib_tb_miss(),
        continued: machine.cpu.block_stats().replayed,
        continued_measured: machine.cpu.block_stats().replayed - continued_before_measure,
        reconciled,
    }
}

/// Assert every observable of two runs is bit-identical.
fn assert_indistinguishable(name: &str, naive: &Observed, default: &Observed) {
    assert_eq!(
        naive.histogram, default.histogram,
        "{name}: histograms differ between loops"
    );
    assert_eq!(
        naive.hw, default.hw,
        "{name}: hardware counters differ between loops"
    );
    assert_eq!(
        naive.events, default.events,
        "{name}: trace event streams differ between loops"
    );
    assert_eq!(
        naive.pending_ib_tb_miss, default.pending_ib_tb_miss,
        "{name}: trailing IB state differs between loops"
    );
    assert!(naive.reconciled, "{name}: naive loop fails reconciliation");
    assert!(
        default.reconciled,
        "{name}: default loop fails reconciliation"
    );
}

/// Every workload profile, both loops, full trace-stream equality. The
/// default run must also actually *be* the default loop — instructions
/// retired inside the continuation loop — so this can never silently
/// degrade into comparing naive with naive.
#[test]
fn all_profiles_bit_identical_across_loops() {
    for (i, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let params = small_profile(kind, 0x5EED ^ i as u64);
        let naive = observed_run(&params, CpuConfig::naive_loop(), None, 1_500, 4_000);
        let default = observed_run(&params, CpuConfig::default(), None, 1_500, 4_000);
        assert_eq!(
            naive.continued,
            0,
            "{}: naive loop must not touch the fast paths",
            kind.name()
        );
        assert!(
            default.continued > 0,
            "{}: default loop never continued a run",
            kind.name()
        );
        assert_indistinguishable(kind.name(), &naive, &default);
    }
}

/// The contract holds while machine checks are being injected and
/// recovered from: the same faults fire at the same cycles under both
/// loops, and every downstream observable stays bit-identical. An armed
/// fault engine does not change which loop runs: the default loop's
/// measured region must retire instructions in the continuation loop,
/// which stops at the engine's due cycle as at any other event. (The
/// tracer declines coalescing, so the armed bulk ticks and batched
/// issue runs are pinned in `tests/fault_determinism.rs` instead.)
#[test]
fn bit_identical_under_fault_injection() {
    let plan = FaultPlan::seeded(&FaultClass::ALL, 780, 2, 20_000);
    for kind in [WorkloadKind::TimesharingLight, WorkloadKind::SciEng] {
        let params = small_profile(kind, 0xFA17);
        let naive = observed_run(&params, CpuConfig::naive_loop(), Some(&plan), 2_000, 5_000);
        let default = observed_run(&params, CpuConfig::default(), Some(&plan), 2_000, 5_000);
        assert!(
            !naive.fired.is_empty(),
            "{}: the plan must actually inject",
            kind.name()
        );
        assert_eq!(
            naive.fired,
            default.fired,
            "{}: fault logs differ",
            kind.name()
        );
        assert!(
            default.continued_measured > 0,
            "{}: the armed region never continued a run",
            kind.name()
        );
        assert_indistinguishable(kind.name(), &naive, &default);
    }
}

fn assert_same_measurements(label: &str, a: &[MeasuredWorkload], b: &[MeasuredWorkload]) {
    assert_eq!(a.len(), b.len(), "{label}: result counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{label}: workload order differs");
        assert_eq!(x.histogram, y.histogram, "{label}: {} histogram", x.name);
        assert_eq!(x.counters, y.counters, "{label}: {} counters", x.name);
        assert_eq!(
            (x.instructions, x.cycles),
            (y.instructions, y.cycles),
            "{label}: {} progress",
            x.name
        );
    }
}

/// Runs every job under one host loop, whatever its spec's own tier
/// says: a campaign whose binary switched loops between a crash and
/// the resume.
struct LoopExecutor(CpuConfig);

impl Executor for LoopExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        _timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        Ok(spec.experiment().cpu_config(self.0).run())
    }
}

/// Enqueue `specs` into the journal at `path` and drain it offline
/// under `config`'s loop, as `vax780 run --checkpoint` does.
fn settle_under(path: &Path, specs: &[JobSpec], config: CpuConfig) -> Vec<JobId> {
    let mut journal = Journal::open(path).unwrap();
    let ids = specs
        .iter()
        .map(|spec| journal.append_enqueue(spec).unwrap())
        .collect();
    drop(journal);
    let serve = ServeConfig {
        journal: path.to_path_buf(),
        workers: 2,
        retry: RetryPolicy::from_retries(0),
        drain_on_start: true,
        ..ServeConfig::default()
    };
    let report = run_server(&serve, None, Arc::new(LoopExecutor(config))).unwrap();
    assert_eq!(report.failed, 0);
    ids
}

/// A campaign journal partly settled under one loop resumes under the
/// other with nothing to show for it: the combined results equal an
/// uninterrupted single-loop campaign, in both default<->naive crossing
/// directions. This is what licenses flipping `CpuConfig` between a
/// crash and its resume.
#[test]
fn checkpoint_resume_crosses_loop_boundary() {
    let kinds = [
        WorkloadKind::TimesharingLight,
        WorkloadKind::Educational,
        WorkloadKind::SciEng,
    ];
    let (reference, _) = CompositeStudy::new(4_000)
        .with_kinds(&kinds)
        .warmup(1_000)
        .run();
    let specs: Vec<JobSpec> = kinds
        .iter()
        .map(|&kind| {
            let mut spec = JobSpec::new(kind);
            spec.instructions = 4_000;
            spec.warmup = 1_000;
            spec
        })
        .collect();

    let dir = std::env::temp_dir().join("vax-perf-equiv-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    for (first, second, label) in [
        (
            CpuConfig::naive_loop(),
            CpuConfig::default(),
            "naive->default",
        ),
        (
            CpuConfig::default(),
            CpuConfig::naive_loop(),
            "default->naive",
        ),
    ] {
        let path = dir.join(format!("{}.journal", label.replace("->", "-")));
        // One job settles under the first loop before the "crash"; the
        // reopened journal finishes the rest under the other loop.
        let mut ids = settle_under(&path, &specs[..1], first);
        ids.extend(settle_under(&path, &specs[1..], second));
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.counts(), (0, 3, 0), "{label}: all settled");
        let resumed: Vec<MeasuredWorkload> = ids
            .iter()
            .map(|&id| journal.measurement(id).unwrap().expect("settled as done"))
            .collect();
        assert_same_measurements(label, &reference, &resumed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
