//! The composite study and the campaign vocabulary its engines share.
//!
//! [`CompositeStudy::run`] measures the workloads one after another on
//! the calling thread and sums them in workload order: the in-memory
//! reference. Campaigns that want workers, retries or a journal run
//! through the `vax-serve` queue, which must match it bit for bit;
//! [`RetryPolicy`] and [`CampaignMetrics`] are the parts of that engine
//! its callers configure and read.

use crate::{Experiment, MeasuredWorkload};
use std::time::Duration;
use vax_analysis::Analysis;
use vax_cpu::CpuConfig;
use vax_mem::MemConfig;
use vax_trace::SelfMetrics;
use vax_workloads::WorkloadKind;

/// How many times a job is attempted before it is settled as failed
/// (the [`RetryPolicy::default`] attempt bound).
pub const MAX_JOB_ATTEMPTS: u32 = 2;

/// How a job queue retries a failing job: at most `max_attempts`
/// tries, sleeping `attempt * backoff` between them. The schedule is
/// deterministic — a fixed linear ramp, not a randomized one — so
/// reruns of the same campaign behave identically. The `vax-serve`
/// worker pool applies it.
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

    fn experiment(&self, kind: WorkloadKind) -> Experiment {
        Experiment::new(kind)
            .warmup(self.warmup_each)
            .instructions(self.instructions_each)
            .cpu_config(self.cpu_config)
            .mem_config(self.mem_config)
    }

    /// Run every workload, one after another on the calling thread, and
    /// return (per-workload results, composite analysis) — "the sum of
    /// the five µPC histograms" (§2.2), merged in workload order.
    ///
    /// # Panics
    ///
    /// Panics if a workload faults unrecoverably (a model bug).
    pub fn run(&self) -> (Vec<MeasuredWorkload>, Analysis) {
        let results: Vec<MeasuredWorkload> = self
            .kinds
            .iter()
            .map(|&k| self.experiment(k).run())
            .collect();
        let analysis = MeasuredWorkload::composite(&results).analysis();
        (results, analysis)
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
}
