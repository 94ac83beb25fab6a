//! Determinism under faults (the robustness contract): the same seed
//! and the same fault plan must reproduce the injected run bit for bit
//! — histogram, hardware counters, and the full trace event stream —
//! and the three instruments must still reconcile exactly while
//! machine-check recovery cycles are being burned.

use proptest::prelude::*;
use upc_monitor::{Command, HistogramBoard};
use vax_cpu::CpuConfig;
use vax_fault::{FaultClass, FaultEngine, FaultPlan, FaultTrigger, FiredFault};
use vax_mem::{HwCounters, MemConfig};
use vax_trace::{TraceEvent, Tracer};
use vax_workloads::{build_machine_with_config, profile, ProfileParams, WorkloadKind};

/// A scaled-down profile so property cases run in milliseconds.
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

struct InjectedRun {
    events: Vec<TraceEvent>,
    histogram: upc_monitor::Histogram,
    hw: HwCounters,
    fired: Vec<FiredFault>,
    pending_ib_tb_miss: bool,
    tracer_machine_checks: u64,
    reconciled: bool,
}

/// Warm up, install and arm the fault engine at the measurement
/// boundary, and run the measured region under the board+tracer tee —
/// the same shape as `vax780 inject`.
fn injected_run(
    params: &ProfileParams,
    config: CpuConfig,
    plan: &FaultPlan,
    warmup: u64,
    measured: u64,
) -> InjectedRun {
    let mut machine = build_machine_with_config(params, config, MemConfig::default());
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = Tracer::new();
    {
        let mut tee = (&mut board, &mut tracer);
        machine
            .run_phase("warmup", warmup, &mut tee)
            .expect("warmup runs");
        machine
            .cpu
            .mem_mut()
            .set_fault_hook(Box::new(FaultEngine::new(plan)));
        let now = machine.cpu.now();
        machine.cpu.mem_mut().arm_fault_hook(now);
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
    InjectedRun {
        events: tracer.events().copied().collect(),
        histogram,
        hw,
        fired: machine.cpu.mem().faults_fired(),
        pending_ib_tb_miss: machine.cpu.pending_ib_tb_miss(),
        tracer_machine_checks: tracer.counters().machine_checks,
        reconciled,
    }
}

/// The headline case: a mixed plan over every fault class, run twice.
#[test]
fn same_seed_and_plan_reproduce_the_run_bit_for_bit() {
    let params = small_profile(WorkloadKind::TimesharingLight, 11);
    let plan = FaultPlan::seeded(&FaultClass::ALL, 780, 2, 20_000);
    let a = injected_run(&params, CpuConfig::default(), &plan, 2_000, 5_000);
    let b = injected_run(&params, CpuConfig::default(), &plan, 2_000, 5_000);

    assert!(!a.fired.is_empty(), "the plan must actually inject");
    assert_eq!(a.fired, b.fired, "fault log differs between runs");
    assert_eq!(a.histogram, b.histogram, "histogram differs");
    assert_eq!(a.hw, b.hw, "hardware counters differ");
    assert_eq!(
        a.events.len(),
        b.events.len(),
        "trace stream length differs"
    );
    assert_eq!(a.events, b.events, "trace event stream differs");
    assert_eq!(a.pending_ib_tb_miss, b.pending_ib_tb_miss);
}

/// Reconciliation stays *exact* while faults fire: the recovery cycles
/// are attributed identically by all three instruments.
#[test]
fn instruments_reconcile_exactly_while_faults_fire() {
    let params = small_profile(WorkloadKind::Educational, 23);
    let plan = FaultPlan::new()
        .with(FaultClass::CacheParity, FaultTrigger::AtCycle(1_000))
        .with(FaultClass::SbiTimeout, FaultTrigger::AtCycle(3_000))
        .with(FaultClass::TbCorrupt, FaultTrigger::AtCycle(6_000))
        .with(FaultClass::WriteBufferError, FaultTrigger::AtCycle(9_000))
        .with(
            FaultClass::ControlStoreBitFlip,
            FaultTrigger::AtCycle(12_000),
        );
    let run = injected_run(&params, CpuConfig::default(), &plan, 2_000, 6_000);
    assert_eq!(run.fired.len(), 5, "every scheduled fault must mature");
    assert!(run.reconciled, "instruments must agree under injection");
    assert_eq!(run.hw.machine_checks, 5);
    assert_eq!(run.tracer_machine_checks, 5);
}

/// µPC-keyed triggers are deterministic too: the Nth issue from a given
/// micro-address lands at the same cycle every run.
#[test]
fn upc_triggered_faults_are_reproducible() {
    let params = small_profile(WorkloadKind::SciEng, 5);
    let cs = vax_ucode::ControlStore::build();
    let plan = FaultPlan::new().with(
        FaultClass::TbCorrupt,
        FaultTrigger::AtMicroPc {
            addr: cs.ird1().value(),
            hits: 500,
        },
    );
    let a = injected_run(&params, CpuConfig::default(), &plan, 1_000, 4_000);
    let b = injected_run(&params, CpuConfig::default(), &plan, 1_000, 4_000);
    assert_eq!(a.fired.len(), 1, "the decode stream reaches 500 issues");
    assert_eq!(a.fired, b.fired);
    assert_eq!(a.histogram, b.histogram);
    assert_eq!(a.hw, b.hw);
    assert!(a.reconciled && b.reconciled);
}

/// Audit pin: an `AtCycle` trigger bisected into the *middle* of a
/// stretch the fast paths would otherwise coalesce into one bulk clock
/// advance. With a fault hook installed the default loop falls back to
/// per-cycle ticking (and the continuation loop stands down), so the
/// trigger must mature at exactly the same cycle — same fired log,
/// histogram, counters, and trace stream — under the naive and default
/// loops. Sweeping the trigger across a contiguous window catches any
/// cycle the coalesced path could jump over.
#[test]
fn cycle_trigger_inside_a_bulk_tick_is_tier_invariant() {
    let params = small_profile(WorkloadKind::TimesharingLight, 41);
    for trigger in (1_000u64..1_036).step_by(7) {
        let plan = FaultPlan::new().with(FaultClass::CacheParity, FaultTrigger::AtCycle(trigger));
        let naive = injected_run(&params, CpuConfig::naive_loop(), &plan, 1_500, 3_000);
        assert_eq!(naive.fired.len(), 1, "trigger @{trigger} must mature");
        let run = injected_run(&params, CpuConfig::default(), &plan, 1_500, 3_000);
        assert_eq!(run.fired, naive.fired, "fired log @{trigger}");
        assert_eq!(run.histogram, naive.histogram, "histogram @{trigger}");
        assert_eq!(run.hw, naive.hw, "counters @{trigger}");
        assert_eq!(run.events, naive.events, "trace @{trigger}");
    }
}

/// Same audit for µPC-keyed triggers: the Nth issue of the decode
/// micro-address lands inside what the shortcut paths batch into one
/// issue run. Sweeping adjacent hit counts bisects the trigger into
/// the middle of such a run; both loops must agree on when it fires.
#[test]
fn micro_pc_trigger_inside_a_batched_issue_run_is_tier_invariant() {
    let params = small_profile(WorkloadKind::Educational, 57);
    let cs = vax_ucode::ControlStore::build();
    for hits in [40u32, 41, 42] {
        let plan = FaultPlan::new().with(
            FaultClass::TbCorrupt,
            FaultTrigger::AtMicroPc {
                addr: cs.ird1().value(),
                hits,
            },
        );
        let naive = injected_run(&params, CpuConfig::naive_loop(), &plan, 1_500, 3_000);
        assert_eq!(naive.fired.len(), 1, "trigger @{hits} hits must mature");
        let run = injected_run(&params, CpuConfig::default(), &plan, 1_500, 3_000);
        assert_eq!(run.fired, naive.fired, "fired log @{hits} hits");
        assert_eq!(run.histogram, naive.histogram, "histogram @{hits} hits");
        assert_eq!(run.hw, naive.hw, "counters @{hits} hits");
        assert_eq!(run.events, naive.events, "trace @{hits} hits");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For small random plans (random classes, seeds, and densities),
    /// the injected run is reproducible bit for bit and the instruments
    /// reconcile exactly.
    #[test]
    fn random_plans_are_deterministic_and_reconciled(
        kind in prop::sample::select(vec![
            WorkloadKind::TimesharingLight,
            WorkloadKind::Educational,
            WorkloadKind::Commercial,
        ]),
        seed in 0u64..10_000,
        per_class in 1u32..3,
        class_mask in 1usize..32,
        salt in 0u64..1_000,
    ) {
        let classes: Vec<FaultClass> = FaultClass::ALL
            .into_iter()
            .filter(|c| class_mask & (1 << c.index()) != 0)
            .collect();
        let plan = FaultPlan::seeded(&classes, seed, per_class, 15_000);
        let params = small_profile(kind, salt);
        let a = injected_run(&params, CpuConfig::default(), &plan, 1_500, 4_000);
        let b = injected_run(&params, CpuConfig::default(), &plan, 1_500, 4_000);
        prop_assert_eq!(&a.fired, &b.fired);
        prop_assert_eq!(&a.histogram, &b.histogram);
        prop_assert_eq!(&a.hw, &b.hw);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert!(a.reconciled, "injected run must reconcile");
        prop_assert_eq!(a.hw.machine_checks, a.fired.len() as u64);
        prop_assert_eq!(a.tracer_machine_checks, a.fired.len() as u64);
    }
}
