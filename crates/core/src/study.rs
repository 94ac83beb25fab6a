//! The composite study: all five workloads, summed.
//!
//! Each workload experiment owns its machine, RNG seed, and sinks, so
//! the campaign is embarrassingly parallel: [`CompositeStudy::run`]
//! fans the workloads across a bounded scoped-thread pool and merges
//! the results in workload order, which makes the merged histogram and
//! counters bit-identical to a serial run regardless of which worker
//! finished first.
//!
//! The pool quarantines failures: each job runs once under
//! `catch_unwind`, and a panicking job becomes a structured
//! [`JobFailure`] while the other workers keep draining the queue, so
//! one poisoned workload cannot abort a campaign. Every job is a seeded,
//! deterministic simulation, so a second attempt would panic the same
//! way; retries and durable resume belong to the `vax-serve` queue.

use crate::{Experiment, MeasuredWorkload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use upc_monitor::Histogram;
use vax_analysis::Analysis;
use vax_cpu::CpuConfig;
use vax_mem::{HwCounters, MemConfig};
use vax_trace::SelfMetrics;
use vax_ucode::ControlStore;
use vax_workloads::WorkloadKind;

/// Worker count when none is requested: one per host core, capped by the
/// number of jobs to run.
pub fn default_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// How many times a job is attempted before it is settled as failed
/// (the [`RetryPolicy::default`] attempt bound).
pub const MAX_JOB_ATTEMPTS: u32 = 2;

/// How a job queue retries a failing job: at most `max_attempts`
/// tries, sleeping `attempt * backoff` between them. The schedule is
/// deterministic — a fixed linear ramp, not a randomized one — so
/// reruns of the same campaign behave identically. The `vax-serve`
/// worker pool applies it; the in-memory pool here runs each job once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (first try included); at least 1.
    pub max_attempts: u32,
    /// Base backoff; attempt `k` sleeps `k * backoff` before retrying.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: MAX_JOB_ATTEMPTS,
            backoff: Duration::from_millis(10),
        }
    }
}

impl RetryPolicy {
    /// Policy from CLI-style knobs: `retries` extra attempts after the
    /// first, with the given base backoff in milliseconds.
    pub fn from_retries(retries: u32, backoff_ms: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: retries.saturating_add(1).max(1),
            backoff: Duration::from_millis(backoff_ms),
        }
    }
}

/// A quarantined job: it panicked. The campaign keeps the failure as
/// data instead of unwinding the pool.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Job index in submission order.
    pub index: usize,
    /// Job label (the workload or sweep-point name).
    pub label: String,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job '{}' (#{}) panicked: {}",
            self.label, self.index, self.message
        )
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Host-side metrics for one parallel campaign: what each worker did and
/// how long the whole fan-out took.
#[derive(Debug, Clone, Default)]
pub struct CampaignMetrics {
    /// Per-worker phase metrics (one phase per job the worker ran).
    pub workers: Vec<SelfMetrics>,
    /// Wall-clock for the whole campaign (fan-out to join).
    pub wall: Duration,
}

impl CampaignMetrics {
    /// Sum of busy wall time across workers.
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(SelfMetrics::total_wall).sum()
    }

    /// Aggregate parallel speedup: total busy time / elapsed wall time.
    /// 1.0 means no overlap (serial); N means N workers were saturated.
    /// A zero-duration wall clock (sub-millisecond campaigns on fast
    /// hosts) yields a defined 1.0, never `inf`/NaN.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            let s = self.busy().as_secs_f64() / wall;
            if s.is_finite() {
                return s;
            }
        }
        1.0
    }

    /// Total simulated instructions across all workers.
    pub fn instructions(&self) -> u64 {
        self.workers
            .iter()
            .flat_map(|w| w.phases())
            .map(|p| p.instructions)
            .sum()
    }

    /// Aggregate simulated MIPS (instructions per host second of wall
    /// time, in millions). A zero-duration wall clock yields a defined
    /// 0.0, never `inf`/NaN.
    pub fn aggregate_mips(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            let m = self.instructions() as f64 / wall / 1e6;
            if m.is_finite() {
                return m;
            }
        }
        0.0
    }
}

impl std::fmt::Display for CampaignMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, w) in self.workers.iter().enumerate() {
            for p in w.phases() {
                writeln!(
                    f,
                    "worker {i}: {:<20} {:>10.3?}  {:>10} instrs  {:>8.3} sim-MIPS",
                    p.name,
                    p.wall,
                    p.instructions,
                    p.instructions_per_sec() / 1e6
                )?;
            }
        }
        write!(
            f,
            "wall {:.3?}   busy {:.3?}   speedup {:.2}x   aggregate {:.3} sim-MIPS",
            self.wall,
            self.busy(),
            self.speedup(),
            self.aggregate_mips()
        )
    }
}

/// The paper's full experimental campaign: five workloads, one composite.
#[derive(Debug, Clone)]
pub struct CompositeStudy {
    instructions_each: u64,
    warmup_each: u64,
    kinds: Vec<WorkloadKind>,
    cpu_config: CpuConfig,
    mem_config: MemConfig,
    workers: Option<usize>,
}

impl CompositeStudy {
    /// All five workloads at the given per-workload measurement length.
    pub fn new(instructions_each: u64) -> CompositeStudy {
        CompositeStudy {
            instructions_each,
            warmup_each: 30_000,
            kinds: WorkloadKind::ALL.to_vec(),
            cpu_config: CpuConfig::default(),
            mem_config: MemConfig::default(),
            workers: None,
        }
    }

    /// Restrict to a subset of workloads (tests, quick runs).
    pub fn with_kinds(mut self, kinds: &[WorkloadKind]) -> CompositeStudy {
        self.kinds = kinds.to_vec();
        self
    }

    /// Set the per-workload warmup.
    pub fn warmup(mut self, n: u64) -> CompositeStudy {
        self.warmup_each = n;
        self
    }

    /// Override the CPU configuration for every workload (ablations).
    pub fn cpu_config(mut self, config: CpuConfig) -> CompositeStudy {
        self.cpu_config = config;
        self
    }

    /// Override the memory configuration for every workload (ablations).
    pub fn mem_config(mut self, config: MemConfig) -> CompositeStudy {
        self.mem_config = config;
        self
    }

    /// Cap the worker pool (default: one worker per host core, at most
    /// one per workload). `1` forces the serial path.
    pub fn max_workers(mut self, n: usize) -> CompositeStudy {
        self.workers = Some(n.max(1));
        self
    }

    fn experiment(&self, kind: WorkloadKind) -> Experiment {
        Experiment::new(kind)
            .warmup(self.warmup_each)
            .instructions(self.instructions_each)
            .cpu_config(self.cpu_config)
            .mem_config(self.mem_config)
    }

    /// Run every workload and return (per-workload results, composite
    /// analysis) — "the sum of the five µPC histograms" (§2.2).
    /// Workloads run concurrently when more than one worker is available;
    /// the merge is performed in workload order, so the result is
    /// bit-identical to [`CompositeStudy::run_serial`].
    pub fn run(&self) -> (Vec<MeasuredWorkload>, Analysis) {
        let (results, analysis, _) = self.run_with_metrics();
        (results, analysis)
    }

    /// As [`CompositeStudy::run`], forcing the single-threaded path.
    pub fn run_serial(&self) -> (Vec<MeasuredWorkload>, Analysis) {
        let results: Vec<MeasuredWorkload> = self
            .kinds
            .iter()
            .map(|&k| self.experiment(k).run())
            .collect();
        let analysis = merge_results(&results);
        (results, analysis)
    }

    /// Run the campaign and also report host-side self-metrics: per-worker
    /// wall time and simulated MIPS, plus the aggregate speedup.
    ///
    /// # Panics
    ///
    /// Panics if any job was quarantined (a model bug, as in the serial
    /// path) — use [`CompositeStudy::run_supervised`] to keep failures
    /// as data instead.
    pub fn run_with_metrics(&self) -> (Vec<MeasuredWorkload>, Analysis, CampaignMetrics) {
        let outcome = self.run_supervised();
        if let Some(failure) = outcome.failures.first() {
            panic!("{failure}");
        }
        (outcome.results, outcome.analysis, outcome.metrics)
    }

    /// Run the campaign under the quarantine supervisor: a panicking
    /// workload is reported as a [`JobFailure`] while the rest of the
    /// campaign completes. The composite analysis merges the successful
    /// jobs in workload order.
    pub fn run_supervised(&self) -> CampaignOutcome {
        let started = Instant::now();
        let jobs = self.kinds.len();
        let workers = self
            .workers
            .unwrap_or_else(|| default_workers(jobs))
            .clamp(1, jobs.max(1));
        let (outcomes, worker_metrics) = run_jobs_with(
            workers,
            jobs,
            |i| self.kinds[i].name().to_string(),
            |i| self.experiment(self.kinds[i]).run(),
        );
        let metrics = CampaignMetrics {
            workers: worker_metrics,
            wall: started.elapsed(),
        };
        let mut results = Vec::new();
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(r) => results.push(r),
                Err(f) => failures.push(f),
            }
        }
        let analysis = merge_results(&results);
        CampaignOutcome {
            results,
            failures,
            analysis,
            metrics,
        }
    }
}

/// What a supervised campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Completed measurements, workload order.
    pub results: Vec<MeasuredWorkload>,
    /// Jobs the supervisor quarantined.
    pub failures: Vec<JobFailure>,
    /// Composite analysis over the completed measurements.
    pub analysis: Analysis,
    /// Host-side self-metrics.
    pub metrics: CampaignMetrics,
}

impl CampaignOutcome {
    /// Did every workload complete?
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Merge per-workload measurements into the composite analysis, in the
/// order given (deterministic regardless of execution order).
fn merge_results(results: &[MeasuredWorkload]) -> Analysis {
    let mut histogram = Histogram::new();
    let mut counters = HwCounters::new();
    for r in results {
        histogram.merge(&r.histogram);
        counters.merge(&r.counters);
    }
    let cs = ControlStore::build();
    Analysis::new(&histogram, &cs, &counters)
}

/// Run one job under the supervisor's quarantine discipline: a panic
/// is caught and becomes an `Err(JobFailure)` instead of unwinding the
/// pool.
fn attempt_job<T, F>(i: usize, label: &str, job: &F) -> Result<T, JobFailure>
where
    F: Fn(usize) -> T + Sync,
{
    catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|payload| JobFailure {
        index: i,
        label: label.to_string(),
        message: panic_message(payload),
    })
}

/// Run `jobs` closures across a bounded scoped-thread pool and return
/// the per-job outcomes in job order plus per-worker [`SelfMetrics`]
/// (one phase per job, named by `label(i)`, charged with its simulated
/// work).
///
/// The pool is a simple atomic work queue: workers claim the next job
/// index until none remain. Results land in per-index slots, so the
/// output order never depends on scheduling. A panicking job is
/// quarantined (see [`JobFailure`]).
pub(crate) fn run_jobs_with<T, L, F>(
    workers: usize,
    jobs: usize,
    label: L,
    job: F,
) -> (Vec<Result<T, JobFailure>>, Vec<SelfMetrics>)
where
    T: Send + HasSimWork,
    L: Fn(usize) -> String + Sync,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, jobs.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobFailure>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();
    // One worker's loop; the serial path runs it on the calling thread.
    let drain = || {
        let mut metrics = SelfMetrics::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            let name = label(i);
            metrics.begin_phase(&name, 0, 0);
            let outcome = attempt_job(i, &name, &job);
            let (cycles, instructions) = outcome.as_ref().map_or((0, 0), HasSimWork::sim_work);
            metrics.end_phase(cycles, instructions);
            *slots[i].lock().expect("slot lock") = Some(outcome);
        }
        metrics
    };
    let worker_metrics = if workers <= 1 {
        vec![drain()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(drain)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect()
        })
    };
    let out = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every job slot filled")
        })
        .collect();
    (out, worker_metrics)
}

/// [`run_jobs_with`], unwrapping quarantined failures into a panic on
/// the *caller's* thread — the pool itself still drains every job
/// first, so a poisoned job cannot strand its siblings mid-flight.
pub(crate) fn run_jobs<T, L, F>(
    workers: usize,
    jobs: usize,
    label: L,
    job: F,
) -> (Vec<T>, Vec<SelfMetrics>)
where
    T: Send + HasSimWork,
    L: Fn(usize) -> String + Sync,
    F: Fn(usize) -> T + Sync,
{
    let (outcomes, metrics) = run_jobs_with(workers, jobs, label, job);
    let out = outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|failure| panic!("{failure}")))
        .collect();
    (out, metrics)
}

/// Simulated work carried by a job result, for worker self-metrics.
pub(crate) trait HasSimWork {
    /// `(simulated cycles, simulated instructions)` this result cost.
    fn sim_work(&self) -> (u64, u64);
}

impl HasSimWork for MeasuredWorkload {
    fn sim_work(&self) -> (u64, u64) {
        (self.cycles, self.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_merges_workloads() {
        let (results, analysis) = CompositeStudy::new(8_000)
            .warmup(3_000)
            .with_kinds(&[WorkloadKind::TimesharingLight, WorkloadKind::SciEng])
            .run();
        assert_eq!(results.len(), 2);
        let per_sum: u64 = results.iter().map(|r| r.analysis().instructions()).sum();
        assert_eq!(analysis.instructions(), per_sum);
        assert!(analysis.cpi() > 2.0);
    }

    #[derive(Debug)]
    struct Tiny(u64);
    impl HasSimWork for Tiny {
        fn sim_work(&self) -> (u64, u64) {
            (self.0, self.0)
        }
    }

    #[test]
    fn poisoned_job_is_quarantined_not_fatal() {
        // One job out of four panics; its siblings must still complete
        // and the failure must carry the job's label.
        let (outcomes, _) = run_jobs_with(
            2,
            4,
            |i| format!("job-{i}"),
            |i| {
                assert!(i != 1, "poisoned workload");
                Tiny(i as u64)
            },
        );
        assert_eq!(outcomes.len(), 4);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 1 {
                let f = o.as_ref().unwrap_err();
                assert_eq!(f.label, "job-1");
                assert_eq!(f.index, 1);
                assert!(f.message.contains("poisoned workload"), "{}", f.message);
            } else {
                assert!(o.is_ok(), "sibling job {i} should have completed");
            }
        }
    }

    #[test]
    fn poisoned_jobs_run_once_and_are_all_quarantined_in_one_drain() {
        // Two of five jobs panic in the same pool drain-out: each runs
        // exactly once (a seeded simulation would panic the same way
        // again), every failure is quarantined independently, every
        // sibling completes, and the pool never strands a job slot.
        let poisoned = [1usize, 3];
        let runs = AtomicUsize::new(0);
        let (outcomes, _) = run_jobs_with(
            3,
            5,
            |i| format!("job-{i}"),
            |i| {
                runs.fetch_add(1, Ordering::SeqCst);
                assert!(!poisoned.contains(&i), "poisoned workload {i}");
                Tiny(i as u64)
            },
        );
        assert_eq!(runs.load(Ordering::SeqCst), 5, "one attempt per job");
        assert_eq!(outcomes.len(), 5);
        for (i, o) in outcomes.iter().enumerate() {
            if poisoned.contains(&i) {
                let f = o.as_ref().unwrap_err();
                assert_eq!(f.index, i);
                assert_eq!(f.label, format!("job-{i}"));
                assert!(f.to_string().contains("panicked"), "{f}");
            } else {
                assert!(o.is_ok(), "sibling job {i} should have completed");
            }
        }
    }

    #[test]
    fn zero_wall_metrics_are_defined() {
        // A sub-millisecond campaign can observe a zero-duration wall
        // clock; speedup and aggregate MIPS must stay defined (no
        // inf/NaN leaking into JSONL exports).
        let mut worker = SelfMetrics::new();
        worker.begin_phase("job", 0, 0);
        worker.end_phase(5_000, 1_000);
        let m = CampaignMetrics {
            workers: vec![worker],
            wall: Duration::ZERO,
        };
        assert!(m.busy() >= Duration::ZERO);
        assert!(m.speedup().is_finite());
        assert!(m.aggregate_mips().is_finite());
        assert_eq!(m.aggregate_mips(), 0.0);
        let empty = CampaignMetrics::default();
        assert_eq!(empty.speedup(), 1.0);
        assert_eq!(empty.aggregate_mips(), 0.0);
    }

    #[test]
    fn supervised_campaign_completes() {
        let outcome = CompositeStudy::new(5_000)
            .warmup(2_000)
            .with_kinds(&[WorkloadKind::TimesharingLight])
            .run_supervised();
        assert!(outcome.is_complete());
        assert_eq!(outcome.results.len(), 1);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let study = CompositeStudy::new(6_000)
            .warmup(2_000)
            .with_kinds(&[WorkloadKind::TimesharingLight, WorkloadKind::Educational]);
        let (serial, serial_analysis) = study.run_serial();
        let (parallel, parallel_analysis, metrics) =
            study.clone().max_workers(2).run_with_metrics();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.histogram, p.histogram);
            assert_eq!(s.counters, p.counters);
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
        // Two jobs ran, between them covering all simulated work.
        let phases: usize = metrics.workers.iter().map(|w| w.phases().len()).sum();
        assert_eq!(phases, 2);
        assert!(metrics.speedup() > 0.0);
    }
}
