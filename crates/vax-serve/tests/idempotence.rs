//! Journal idempotence: a resumed queue never re-runs a settled job,
//! and the merged results are bit-identical to an uninterrupted run.
//!
//! The property's executor is synthetic (deterministic results derived
//! from the seed, no simulation) so it hammers the *queue* logic:
//! replay, claim, retry accounting, result rendering and measurement
//! read-back — across random interruption points and worker counts.
//! One test runs the real simulator: the five-workload composite as
//! `vax780 run --checkpoint` drives it through the journal.

use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::{CompositeStudy, MeasuredWorkload, RetryPolicy};
use vax_mem::HwCounters;
use vax_serve::queue::ExecError;
use vax_serve::{run_server, Executor, InProcessExecutor, JobSpec, JobState, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vax-serve-idem-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_for(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(WorkloadKind::ALL[(seed as usize) % WorkloadKind::ALL.len()]);
    spec.instructions = 1_000;
    spec.warmup = 100;
    spec.seed = Some(seed);
    spec
}

/// The deterministic result the synthetic executor produces for a seed.
fn synth(seed: u64) -> MeasuredWorkload {
    let mut h = Histogram::new();
    h.bump_issue(MicroAddr::new((seed as u16) % 1024));
    h.bump_stall(MicroAddr::new((seed as u16) % 1024), (seed % 7) as u32);
    let mut c = HwCounters::new();
    c.sbi_reads = seed * 3;
    MeasuredWorkload {
        name: spec_for(seed).workload.name(),
        histogram: h,
        counters: c,
        instructions: 1_000,
        cycles: 4_000 + seed,
    }
}

fn fail_message(seed: u64) -> String {
    format!("synthetic failure for seed {seed}")
}

/// Counts runs per seed; fails seeds in `fail_seeds`, synthesizes
/// results for the rest.
struct CountingExecutor {
    runs: Mutex<HashMap<u64, u32>>,
    fail_seeds: Vec<u64>,
}

impl Executor for CountingExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        _timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        let seed = spec.seed.expect("test specs carry a seed");
        *self.runs.lock().unwrap().entry(seed).or_insert(0) += 1;
        if self.fail_seeds.contains(&seed) {
            return Err(ExecError::Failed(fail_message(seed)));
        }
        Ok(synth(seed))
    }
}

fn assert_same_measurement(what: &str, a: &MeasuredWorkload, b: &MeasuredWorkload) {
    assert_eq!(a.name, b.name, "{what}: workload");
    assert_eq!(a.histogram, b.histogram, "{what}: histogram");
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(
        (a.instructions, a.cycles),
        (b.instructions, b.cycles),
        "{what}: progress"
    );
}

fn drain_config(journal: PathBuf, workers: usize) -> ServeConfig {
    ServeConfig {
        journal,
        workers,
        retry: RetryPolicy::from_retries(0),
        drain_on_start: true,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Settle a random subset of the queue "before the crash", resume,
    /// and check: settled jobs run zero times, unsettled jobs exactly
    /// once, and the merged result lines are byte-identical to an
    /// uninterrupted run of the same queue — whether or not the
    /// interrupted journal was compacted before the resume or after
    /// it.
    #[test]
    fn resumed_queue_is_idempotent_and_bit_identical(
        n in 1usize..6,
        settled_mask in 0u32..32,
        fail_mask in 0u32..32,
        dangling_start in any::<bool>(),
        workers in 1usize..4,
        compact_before in any::<bool>(),
        compact_after in any::<bool>(),
    ) {
        let dir = tempdir();
        let interrupted = dir.join("interrupted.journal");
        let reference = dir.join("reference.journal");
        let seeds: Vec<u64> = (1..=n as u64).collect();
        let fail_seeds: Vec<u64> = seeds
            .iter()
            .copied()
            .filter(|s| fail_mask & (1 << (s - 1)) != 0)
            .collect();

        // Both journals get the same enqueues.
        let mut settled: Vec<u64> = Vec::new();
        {
            let mut j = Journal::open(&interrupted).unwrap();
            let mut r = Journal::open(&reference).unwrap();
            for &seed in &seeds {
                let spec = spec_for(seed);
                let id = j.append_enqueue(&spec).unwrap();
                r.append_enqueue(&spec).unwrap();
                // "Before the crash": settle the masked subset with
                // exactly the records a server would have written.
                if settled_mask & (1 << (seed - 1)) != 0 {
                    j.append_start(id, 1).unwrap();
                    if fail_seeds.contains(&seed) {
                        j.append_fail(id, 1, &format!("attempt 1/1: {}", fail_message(seed)))
                            .unwrap();
                    } else {
                        j.append_complete(id, &synth(seed)).unwrap();
                    }
                    settled.push(seed);
                } else if dangling_start {
                    // Killed mid-attempt: a start record with no
                    // outcome must not stop the re-run.
                    j.append_start(id, 1).unwrap();
                }
            }
        }

        // Optionally compact the pre-crash settled jobs: the resume
        // must behave identically whether their records are live or
        // compacted.
        if compact_before {
            Journal::open(&interrupted).unwrap().compact().unwrap();
        }

        // Resume the interrupted queue.
        let exec = Arc::new(CountingExecutor {
            runs: Mutex::new(HashMap::new()),
            fail_seeds: fail_seeds.clone(),
        });
        let report =
            run_server(&drain_config(interrupted.clone(), workers), None, exec.clone()).unwrap();
        let runs = exec.runs.lock().unwrap().clone();
        for &seed in &seeds {
            let expected = u32::from(!settled.contains(&seed));
            prop_assert_eq!(
                runs.get(&seed).copied().unwrap_or(0),
                expected,
                "seed {} (settled: {:?})", seed, &settled
            );
        }

        // Uninterrupted reference run: bit-identical merged results.
        let ref_exec = Arc::new(CountingExecutor {
            runs: Mutex::new(HashMap::new()),
            fail_seeds,
        });
        let ref_report =
            run_server(&drain_config(reference.clone(), workers), None, ref_exec).unwrap();
        prop_assert_eq!(report.done + report.failed, n);
        prop_assert_eq!(report.done, ref_report.done);
        prop_assert_eq!(report.failed, ref_report.failed);

        // And one more compaction after everything settled must not
        // change a byte of what the journal streams back.
        if compact_after {
            Journal::open(&interrupted).unwrap().compact().unwrap();
        }
        let streamed = |path: &PathBuf| {
            let journal = Journal::open(path).unwrap();
            let mut out = Vec::new();
            let lines = journal.stream_results(&mut out).unwrap();
            (lines, String::from_utf8(out).unwrap())
        };
        let (lines, merged) = streamed(&interrupted);
        let (ref_lines, ref_merged) = streamed(&reference);
        prop_assert_eq!(lines, n);
        prop_assert_eq!(ref_lines, n);
        prop_assert_eq!(merged, ref_merged);

        // Every completed job's measurement reads back exactly, from
        // the live records or from the compacted section.
        let journal = Journal::open(&interrupted).unwrap();
        for (id, &seed) in (1..).zip(&seeds) {
            match journal.measurement(id).unwrap() {
                Some(m) => assert_same_measurement(&format!("seed {seed}"), &m, &synth(seed)),
                None => prop_assert_eq!(journal.state(id), Some(JobState::Failed)),
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Counts real simulations, so a resume can prove what it re-ran.
struct CountingSimulator(AtomicU64);

impl Executor for CountingSimulator {
    fn run(
        &self,
        spec: &JobSpec,
        timeout: Option<Duration>,
    ) -> Result<MeasuredWorkload, ExecError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        InProcessExecutor.run(spec, timeout)
    }
}

/// A composite campaign killed after one job (its second job mid
/// attempt) and then resumed from its journal produces exactly what an
/// uninterrupted campaign produces — per-workload histograms and
/// counters, and so the merged composite — running only the unsettled
/// jobs; a journal that already holds every result re-runs nothing.
#[test]
fn checkpointed_resume_is_bit_identical_to_uninterrupted() {
    let kinds = [
        WorkloadKind::TimesharingLight,
        WorkloadKind::Educational,
        WorkloadKind::Commercial,
    ];
    let (uninterrupted, _) = CompositeStudy::new(4_000)
        .warmup(1_500)
        .with_kinds(&kinds)
        .run();

    let dir = tempdir();
    let path = dir.join("campaign.journal");
    let specs: Vec<JobSpec> = kinds
        .iter()
        .map(|&kind| {
            let mut spec = JobSpec::new(kind);
            spec.instructions = 4_000;
            spec.warmup = 1_500;
            spec
        })
        .collect();
    {
        let mut j = Journal::open(&path).unwrap();
        for spec in &specs {
            j.append_enqueue(spec).unwrap();
        }
        j.append_start(1, 1).unwrap();
        let first = InProcessExecutor.run(&specs[0], None).unwrap();
        j.append_complete(1, &first).unwrap();
        j.append_start(2, 1).unwrap();
    }

    // Re-open the file, exactly as a fresh process does, and resume.
    let resume = || {
        let exec = Arc::new(CountingSimulator(AtomicU64::new(0)));
        let report = run_server(&drain_config(path.clone(), 2), None, exec.clone()).unwrap();
        assert_eq!((report.done, report.failed), (3, 0));
        let journal = Journal::open(&path).unwrap();
        let results: Vec<MeasuredWorkload> = (1..=3)
            .map(|id| journal.measurement(id).unwrap().expect("settled as done"))
            .collect();
        (exec.0.load(Ordering::SeqCst), results)
    };
    let merged = |results: &[MeasuredWorkload]| {
        let mut histogram = Histogram::new();
        let mut counters = HwCounters::new();
        for r in results {
            histogram.merge(&r.histogram);
            counters.merge(&r.counters);
        }
        (histogram, counters)
    };
    let (runs, resumed) = resume();
    assert_eq!(runs, 2, "only the two unsettled jobs re-run");
    for (u, r) in uninterrupted.iter().zip(&resumed) {
        assert_same_measurement(u.name, u, r);
    }
    assert_eq!(merged(&resumed), merged(&uninterrupted));

    // A third open finds everything settled: nothing re-runs.
    let (runs, replayed) = resume();
    assert_eq!(runs, 0, "no fresh simulation");
    assert_eq!(merged(&replayed), merged(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}
