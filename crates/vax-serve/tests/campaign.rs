//! The campaign engine against the serial reference: a campaign drained
//! by any number of workers, and a sweep run on it, reproduce
//! `CompositeStudy::run` bit for bit, in spec order.

use vax780_core::sweep::{SweepAxis, SweepGrid, SweepRow};
use vax780_core::{CompositeStudy, MeasuredWorkload};
use vax_serve::{campaign, run_campaign, JobSpec};
use vax_workloads::WorkloadKind;

fn specs(kinds: &[WorkloadKind], instructions: u64, warmup: u64) -> Vec<JobSpec> {
    kinds
        .iter()
        .map(|&kind| JobSpec {
            instructions,
            warmup,
            ..JobSpec::new(kind)
        })
        .collect()
}

fn assert_same(what: &str, a: &MeasuredWorkload, b: &MeasuredWorkload) {
    assert_eq!(a.name, b.name, "{what}");
    assert_eq!(a.histogram, b.histogram, "{what}: {}: histogram", a.name);
    assert_eq!(a.counters, b.counters, "{what}: {}: counters", a.name);
    assert_eq!(
        (a.instructions, a.cycles),
        (b.instructions, b.cycles),
        "{what}: {}: lengths",
        a.name
    );
}

/// Parallel drains return what the serial study measures, in spec
/// order whatever finished first, and account one worker phase per job.
#[test]
fn parallel_drains_are_bit_identical_to_the_serial_study() {
    let kinds = [
        WorkloadKind::TimesharingLight,
        WorkloadKind::SciEng,
        WorkloadKind::Commercial,
    ];
    let (serial, serial_analysis) = CompositeStudy::new(6_000)
        .warmup(2_000)
        .with_kinds(&kinds)
        .run();
    for workers in [2, 3] {
        let what = format!("{workers} workers");
        let campaign = run_campaign(&specs(&kinds, 6_000, 2_000), None, Some(workers))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(campaign.results.len(), serial.len(), "{what}");
        for (s, p) in serial.iter().zip(&campaign.results) {
            assert_same(&what, s, p);
        }
        let analysis = MeasuredWorkload::composite(&campaign.results).analysis();
        assert_eq!(analysis.counters(), serial_analysis.counters(), "{what}");
        assert_eq!(
            (analysis.instructions(), analysis.total_cycles()),
            (
                serial_analysis.instructions(),
                serial_analysis.total_cycles()
            ),
            "{what}"
        );
        assert_eq!(analysis.cpi(), serial_analysis.cpi(), "{what}");
        let phases: usize = campaign
            .metrics
            .workers
            .iter()
            .map(|w| w.phases().len())
            .sum();
        assert_eq!(phases, kinds.len(), "{what}: one phase per job");
        assert!(campaign.walls.iter().all(|w| !w.is_zero()), "{what}");
        assert!(campaign.metrics.speedup() > 0.0, "{what}");
    }
}

/// A row with its host-time fields zeroed.
fn measured(row: &SweepRow) -> SweepRow {
    SweepRow {
        wall_secs: 0.0,
        sim_mips: 0.0,
        ..row.clone()
    }
}

/// A sweep is deterministic: run at one worker and at two, it prints
/// the same rows, in grid order, each the composite the serial study
/// measures at that point.
#[test]
fn engine_sweeps_are_deterministic_and_ordered() {
    let grid = SweepGrid::with_axes(&[SweepAxis::WriteBuffer, SweepAxis::DecodeOverlap]);
    let kinds = [WorkloadKind::Educational];
    let run = |workers| {
        campaign::sweep(&grid, &kinds, 3_000, 1_000, Some(workers))
            .unwrap_or_else(|e| panic!("{workers} worker(s): {e}"))
    };
    let (one, _) = run(1);
    let (two, metrics) = run(2);
    let labels: Vec<&str> = one.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "baseline",
            "write-buffer=2",
            "write-buffer=4",
            "write-buffer=8",
            "decode-overlap"
        ]
    );
    assert_eq!(
        one.iter().map(measured).collect::<Vec<_>>(),
        two.iter().map(measured).collect::<Vec<_>>()
    );
    for (point, row) in grid.points().iter().zip(&one) {
        let (_, reference) = CompositeStudy::new(3_000)
            .warmup(1_000)
            .with_kinds(&kinds)
            .cpu_config(point.cpu)
            .mem_config(point.mem)
            .run();
        assert_eq!(
            (row.instructions, row.cycles),
            (reference.instructions(), reference.total_cycles()),
            "{}",
            row.label
        );
        assert!(
            row.wall_secs > 0.0,
            "{}: wall from the job's phase",
            row.label
        );
    }
    // Decode overlap saves the non-overlapped decode cycle.
    assert!(one[4].cpi < one[0].cpi);
    assert!(metrics.wall.as_nanos() > 0);
}

/// A failed job fails the campaign, and the error names it.
#[test]
fn a_failed_job_fails_the_campaign_naming_it() {
    let mut jobs = specs(&[WorkloadKind::TimesharingLight], 2_000, 500);
    // Unvalidated, this write buffer would ask for about 34 GB.
    jobs.push(JobSpec {
        write_buffer: Some(u32::MAX),
        ..jobs[0].clone()
    });
    let err = run_campaign(&jobs, None, Some(2)).expect_err("one job fails");
    assert!(err.starts_with("1 of 2 job(s) failed:"), "{err}");
    assert!(err.contains("write-buffer: at most 64"), "{err}");
    assert!(!err.contains("keeps each failure"), "{err}");
}
