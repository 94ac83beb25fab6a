//! Measured counters exclude the Null process (§2.2) exactly as the
//! histogram board does.

use upc_monitor::NullSink;
use vax780_core::measure;
use vax_cpu::{CpuConfig, Psl};
use vax_mem::{HwCounters, MemConfig};
use vax_workloads::{build_machine_with_config, profile, WorkloadKind};

/// §2.2 Null-process exclusion, both instruments. Park the CPU in the
/// Null process's idle loop (kernel mode, interrupts masked at IPL 31,
/// PC at the two-byte BRB) and run the real measurement loop: every
/// step is an idle step, so the µPC board must record nothing — and
/// after the skew fix, the hardware counters must record nothing
/// either. Before the fix the counters kept ticking (IB fetches, cache
/// and TB lookups for the BRB), inflating counter-derived
/// per-instruction rates relative to the histogram.
#[test]
fn measured_counters_exclude_idle_loop_traffic() {
    let params = profile(WorkloadKind::TimesharingLight);
    let mut machine =
        build_machine_with_config(&params, CpuConfig::default(), MemConfig::default());
    let mut null = NullSink;
    machine.run_instructions(5_000, &mut null).expect("warmup");

    // Force the Null process: the scheduler in the generated kernel
    // never goes idle on its own, so place the CPU there directly.
    let idle_pc = machine.idle_pc;
    machine.cpu.jump(idle_pc);
    *machine.cpu.psl_mut() = Psl::kernel_boot(); // kernel mode, IPL 31
    assert!(machine.at_idle());

    // Sanity: the idle loop does generate hardware traffic when stepped
    // raw — the exclusion has something real to exclude.
    let before = *machine.cpu.mem().counters();
    for _ in 0..10 {
        machine.step(&mut null).expect("idle runs");
    }
    let idle_traffic = machine.cpu.mem().counters().delta_since(&before);
    assert!(machine.at_idle(), "BRB .-loop stays at the idle PC");
    assert!(
        idle_traffic.ib_requests > 0 || idle_traffic.tb_hits > 0,
        "idle loop produced no hardware events: {idle_traffic:?}"
    );

    // The real measurement loop over nothing but idle steps.
    let m = measure(&mut machine, 200);
    assert_eq!(m.instructions, 200, "idle BRBs retire instructions");
    assert_eq!(
        m.histogram.total_cycles(),
        0,
        "µPC board must be suspended during the Null process"
    );
    assert_eq!(
        m.counters,
        HwCounters::new(),
        "hardware counters must not accumulate Null-process traffic"
    );
}
