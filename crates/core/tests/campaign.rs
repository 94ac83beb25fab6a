//! Campaign-level guarantees: the parallel composite path is
//! bit-identical to the serial one, measured counters exclude the Null
//! process (§2.2) exactly as the histogram board does, and sweeps are
//! deterministic across repeated runs.

use upc_monitor::NullSink;
use vax780_core::sweep::{Sweep, SweepAxis, SweepGrid};
use vax780_core::{measure, CompositeStudy};
use vax_cpu::{CpuConfig, Psl};
use vax_mem::{HwCounters, MemConfig};
use vax_workloads::{build_machine_with_config, profile, WorkloadKind};

#[test]
fn parallel_composite_is_bit_identical_to_serial() {
    let study = CompositeStudy::new(6_000).warmup(2_000).with_kinds(&[
        WorkloadKind::TimesharingLight,
        WorkloadKind::SciEng,
        WorkloadKind::Commercial,
    ]);
    let (serial, serial_analysis) = study.run_serial();
    let (parallel, parallel_analysis) = study.clone().max_workers(3).run();

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.histogram, p.histogram, "{}: histogram differs", s.name);
        assert_eq!(s.counters, p.counters, "{}: counters differ", s.name);
        assert_eq!(s.instructions, p.instructions);
        assert_eq!(s.cycles, p.cycles);
    }
    assert_eq!(
        serial_analysis.instructions(),
        parallel_analysis.instructions()
    );
    assert_eq!(
        serial_analysis.total_cycles(),
        parallel_analysis.total_cycles()
    );
    assert_eq!(serial_analysis.counters(), parallel_analysis.counters());
    assert_eq!(serial_analysis.cpi(), parallel_analysis.cpi());
}

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

#[test]
fn sweep_is_deterministic_across_runs() {
    let run = || {
        Sweep::new(SweepGrid::with_axes(&[SweepAxis::WriteBuffer]), 3_000)
            .warmup(1_000)
            .with_kinds(&[WorkloadKind::Educational])
            .max_workers(2)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.rows.len(), 4); // baseline + three write-buffer depths
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.label, rb.label);
        assert_eq!(ra.instructions, rb.instructions);
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.cpi, rb.cpi);
        assert_eq!(
            (
                ra.compute,
                ra.read,
                ra.read_stall,
                ra.write,
                ra.write_stall,
                ra.ib_stall
            ),
            (
                rb.compute,
                rb.read,
                rb.read_stall,
                rb.write,
                rb.write_stall,
                rb.ib_stall
            ),
            "{}: breakdown differs between runs",
            ra.label
        );
    }
    // The raw measurements agree too, not just the reductions.
    for (pa, pb) in a.points.iter().zip(&b.points) {
        for (ma, mb) in pa.results.iter().zip(&pb.results) {
            assert_eq!(ma.histogram, mb.histogram);
            assert_eq!(ma.counters, mb.counters);
        }
    }
}
