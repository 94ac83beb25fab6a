//! Cross-crate integration tests: the full study pipeline, its
//! measurement invariants, and the paper's qualitative claims.

use upc_monitor::NullSink;
use vax780_core::{CompositeStudy, Experiment};
use vax_analysis::tables::{Table1, Table2, Table3, Table5, Table8, Table9};
use vax_analysis::{Column, Section4Stats};
use vax_arch::OpcodeGroup;
use vax_cpu::CpuConfig;
use vax_mem::{CacheConfig, MemConfig};
use vax_ucode::Row;
use vax_workloads::{build_machine, profile, ProfileParams, WorkloadKind};

const QUICK: u64 = 25_000;

fn quick_analysis(kind: WorkloadKind) -> vax_analysis::Analysis {
    Experiment::new(kind)
        .warmup(8_000)
        .instructions(QUICK)
        .run()
        .analysis()
}

#[test]
fn every_cycle_is_classified_exactly_once() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let row_sum: f64 = Row::ALL.iter().map(|&r| a.row_total(r)).sum();
    let col_sum: f64 = Column::ALL.iter().map(|&c| a.col_total(c)).sum();
    assert!(
        (row_sum - a.cpi()).abs() < 1e-9,
        "rows {row_sum} vs {}",
        a.cpi()
    );
    assert!(
        (col_sum - a.cpi()).abs() < 1e-9,
        "cols {col_sum} vs {}",
        a.cpi()
    );
}

#[test]
fn cpi_lands_in_the_paper_neighbourhood() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let cpi = a.cpi();
    assert!(
        (8.0..13.5).contains(&cpi),
        "single-workload CPI should be near the paper's 10.6, got {cpi}"
    );
}

#[test]
fn group_frequencies_have_the_paper_shape() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let t1 = Table1::from_analysis(&a);
    // SIMPLE dominates; FIELD > FLOAT-or-CALLRET > CHARACTER > DECIMAL.
    assert!(t1.pct(OpcodeGroup::Simple) > 75.0);
    assert!(t1.pct(OpcodeGroup::Field) > t1.pct(OpcodeGroup::Character));
    assert!(t1.pct(OpcodeGroup::Character) > t1.pct(OpcodeGroup::Decimal));
    let sum: f64 = OpcodeGroup::ALL.iter().map(|&g| t1.pct(g)).sum();
    assert!((sum - 100.0).abs() < 1e-6);
}

#[test]
fn rare_groups_cost_orders_of_magnitude_more() {
    // §5: "the range of cycle time requirements ... covers two orders of
    // magnitude" — SIMPLE ≈ 1.2 within-group vs CHARACTER/DECIMAL ≈ 100+.
    let a = quick_analysis(WorkloadKind::Commercial);
    let t9 = Table9::from_analysis(&a);
    let simple = t9.total(OpcodeGroup::Simple);
    let heavy = t9
        .total(OpcodeGroup::Character)
        .max(t9.total(OpcodeGroup::Decimal));
    assert!(simple < 3.0, "SIMPLE within-group {simple}");
    assert!(
        heavy / simple > 25.0,
        "heavy/simple spread only {:.1}x",
        heavy / simple
    );
}

#[test]
fn reads_outnumber_writes_about_two_to_one() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let t5 = Table5::from_analysis(&a);
    let ratio = t5.read_write_ratio();
    assert!((1.4..3.0).contains(&ratio), "read:write {ratio}");
}

#[test]
fn decode_plus_specifiers_take_about_half_the_time() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let t8 = Table8::from_analysis(&a);
    let frac = t8.decode_plus_spec_fraction();
    assert!((0.38..0.62).contains(&frac), "decode+spec fraction {frac}");
}

#[test]
fn specifier_rates_match_table3_shape() {
    let a = quick_analysis(WorkloadKind::TimesharingLight);
    let t3 = Table3::from_analysis(&a);
    assert!((0.6..0.95).contains(&t3.spec1), "spec1 {}", t3.spec1);
    assert!((0.6..0.95).contains(&t3.spec2_6), "spec2-6 {}", t3.spec2_6);
    assert!((0.2..0.45).contains(&t3.bdisp), "bdisp {}", t3.bdisp);
}

#[test]
fn branch_taken_counts_never_exceed_class_counts() {
    let a = quick_analysis(WorkloadKind::Educational);
    let t2 = Table2::from_analysis(&a);
    for (class, _, taken_pct, _) in &t2.rows {
        assert!(
            *taken_pct <= 100.0 + 1e-9,
            "{class:?} taken {taken_pct}% exceeds 100%"
        );
    }
    assert!(t2.total.1 > 50.0 && t2.total.1 <= 100.0);
}

#[test]
fn composite_is_the_sum_of_its_parts() {
    let (results, composite) = CompositeStudy::new(8_000)
        .warmup(3_000)
        .with_kinds(&[WorkloadKind::TimesharingLight, WorkloadKind::Commercial])
        .run();
    let per_instr: u64 = results.iter().map(|r| r.analysis().instructions()).sum();
    assert_eq!(composite.instructions(), per_instr);
    let per_cycles: u64 = results.iter().map(|r| r.analysis().total_cycles()).sum();
    assert_eq!(composite.total_cycles(), per_cycles);
}

#[test]
fn monitor_is_passive() {
    // Running with the histogram board attached must produce exactly the
    // same machine state as running unmonitored (§2.2: "totally passive
    // ... having no effect on the execution of programs").
    let params = profile(WorkloadKind::TimesharingLight);
    let mut unmonitored = build_machine(&params);
    let mut sink = NullSink;
    unmonitored.run_instructions(15_000, &mut sink).unwrap();

    let mut monitored = build_machine(&params);
    let mut board = upc_monitor::HistogramBoard::new();
    board.execute(upc_monitor::Command::Start);
    monitored.run_instructions(15_000, &mut board).unwrap();

    assert_eq!(unmonitored.cpu.now(), monitored.cpu.now());
    assert_eq!(unmonitored.cpu.pc(), monitored.cpu.pc());
    assert_eq!(
        unmonitored.cpu.mem().counters(),
        monitored.cpu.mem().counters()
    );
}

#[test]
fn measurement_is_deterministic() {
    let run = || {
        let m = Experiment::new(WorkloadKind::SciEng)
            .warmup(4_000)
            .instructions(10_000)
            .run();
        (m.cycles, m.instructions, m.histogram.total_cycles())
    };
    assert_eq!(run(), run());
}

#[test]
fn decode_overlap_saves_close_to_the_nonbranching_fraction() {
    let base = Experiment::new(WorkloadKind::TimesharingLight)
        .warmup(8_000)
        .instructions(QUICK)
        .run()
        .analysis();
    let folded = Experiment::new(WorkloadKind::TimesharingLight)
        .warmup(8_000)
        .instructions(QUICK)
        .cpu_config(CpuConfig::with_decode_overlap())
        .run()
        .analysis();
    let t2 = Table2::from_analysis(&base);
    let predicted = 1.0 - t2.total.0 / 100.0;
    // The fold removes exactly the IRD1 issue cycle of non-PC-changing
    // instructions, so the *decode row* must thin by the non-branching
    // fraction. Total CPI also drops, but by a noisier amount: shifting
    // every later instruction earlier realigns interrupts, DMA and
    // write-buffer drain, which perturbs the other rows.
    let decode_saving = base.row_total(Row::Decode) - folded.row_total(Row::Decode);
    assert!(
        (decode_saving - predicted).abs() < 0.05,
        "decode-row saving {decode_saving:.3} vs predicted {predicted:.3}"
    );
    let cpi_saving = base.cpi() - folded.cpi();
    assert!(
        cpi_saving > 0.5 * predicted,
        "total CPI saving {cpi_saving:.3} implausibly small vs {predicted:.3}"
    );
}

#[test]
fn tb_service_time_is_near_the_paper() {
    let a = quick_analysis(WorkloadKind::TimesharingHeavy);
    let s4 = Section4Stats::from_analysis(&a);
    assert!(
        (15.0..28.0).contains(&s4.tb_service_cycles),
        "TB service {} cycles (paper: 21.6)",
        s4.tb_service_cycles
    );
    assert!(s4.tb_service_read_stall > 0.5);
}

#[test]
fn all_five_workloads_run_and_differ() {
    let mut float_shares = Vec::new();
    for kind in WorkloadKind::ALL {
        let a = Experiment::new(kind)
            .warmup(4_000)
            .instructions(12_000)
            .run()
            .analysis();
        assert!(a.instructions() > 0, "{kind:?} ran");
        float_shares.push((kind, Table1::from_analysis(&a).pct(OpcodeGroup::Float)));
    }
    let sci = float_shares
        .iter()
        .find(|(k, _)| *k == WorkloadKind::SciEng)
        .unwrap()
        .1;
    let com = float_shares
        .iter()
        .find(|(k, _)| *k == WorkloadKind::Commercial)
        .unwrap()
        .1;
    assert!(
        sci > com,
        "sci/eng should be more float-heavy: {float_shares:?}"
    );
}

/// Instructions per point of the memory-system ablation shapes below:
/// the size the paper-table ablations have always used, and large
/// enough that each shape holds at every point.
const ABLATION: u64 = 50_000;

/// The timesharing-light profile under `params` and `mem`.
fn ablation_point(params: ProfileParams, mem: MemConfig) -> vax_analysis::Analysis {
    Experiment::with_params(params)
        .warmup(15_000)
        .instructions(ABLATION)
        .mem_config(mem)
        .run()
        .analysis()
}

#[test]
fn read_misses_do_not_rise_with_cache_size() {
    let rates: Vec<f64> = [2u32, 4, 8, 16, 32]
        .into_iter()
        .map(|kb| {
            let mem = MemConfig {
                cache: CacheConfig {
                    size_bytes: kb * 1024,
                    ..CacheConfig::default()
                },
                ..MemConfig::default()
            };
            let a = ablation_point(profile(WorkloadKind::TimesharingLight), mem);
            Section4Stats::from_analysis(&a).cache_miss_per_instr()
        })
        .collect();
    assert!(
        rates.windows(2).all(|w| w[0] >= w[1] - 1e-6),
        "read misses per instruction must fall (weakly) with cache size: {rates:?}"
    );
}

/// §5 blames the CALL/RET write stalls on "the one-longword write
/// buffer": deeper buffers absorb the push bursts.
#[test]
fn write_stall_falls_with_write_buffer_depth() {
    let series: Vec<f64> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|entries| {
            let mem = MemConfig {
                write_buffer_entries: entries,
                ..MemConfig::default()
            };
            let a = ablation_point(profile(WorkloadKind::TimesharingLight), mem);
            Table8::from_analysis(&a).col_totals[Column::WStall.index()]
        })
        .collect();
    assert!(
        series.windows(2).all(|w| w[0] >= w[1] - 1e-6),
        "W-stall must fall (weakly) with buffer depth: {series:?}"
    );
    assert!(
        series[0] > 2.0 * series[3].max(0.01),
        "a depth-1 buffer must stall on writes more than twice as much as depth 8: {series:?}"
    );
}

/// §3.4: every `LDPCTX` flushes the process half of the TB, so a
/// shorter scheduling quantum raises the TB miss rate.
#[test]
fn shorter_quanta_raise_tb_misses() {
    let rate = |timer_period: u64| {
        let params = ProfileParams {
            timer_period,
            ..profile(WorkloadKind::TimesharingLight)
        };
        let a = ablation_point(params, MemConfig::default());
        Section4Stats::from_analysis(&a).tb_miss_per_instr
    };
    let (short, long) = (rate(16_000), rate(256_000));
    assert!(
        short > long,
        "shorter quanta must flush the TB more often: {short} vs {long}"
    );
}
