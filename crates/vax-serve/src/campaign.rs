//! Campaigns: a list of job specs, enqueued and then drained.
//!
//! [`run_campaign`] is the one way a campaign runs — `vax780 run` (any
//! workload, with or without `--checkpoint`), `vax780 sweep`, and the
//! examples all come through it. It enqueues whichever specs the queue
//! journal does not hold yet, drains the journal offline through
//! [`run_server`] with one attempt per job (a seeded simulation that
//! failed once fails again), and reads the measurements back in spec
//! order. Given a journal file, a killed campaign resumes from it;
//! without one, the journal lives in a private directory under
//! [`std::env::temp_dir`] that is removed when the call returns.
//!
//! [`sweep`] is the §6 what-if grid on the same engine: every point ×
//! workload is one job ([`JobSpec::at_point`]), and each point's jobs
//! reduce to one [`SweepRow`].

use crate::journal::{JobId, JobState, Journal};
use crate::queue::InProcessExecutor;
use crate::server::{run_server, ServeConfig};
use crate::spec::JobSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vax780_core::sweep::{SweepGrid, SweepRow};
use vax780_core::{CampaignMetrics, MeasuredWorkload, RetryPolicy};
use vax_trace::SelfMetrics;
use vax_workloads::WorkloadKind;

/// Worker count when none is requested: one per host core, capped by the
/// number of jobs to run.
pub fn default_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// What a campaign produced.
#[derive(Debug)]
pub struct Campaign {
    /// One measurement per spec, in spec order.
    pub results: Vec<MeasuredWorkload>,
    /// Host wall time of each spec's job in this call, in spec order:
    /// the worker phase named `job-{id}` (zero for a job restored from
    /// the journal).
    pub walls: Vec<Duration>,
    /// The drain's per-worker self-metrics.
    pub metrics: CampaignMetrics,
}

/// A private directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> std::io::Result<ScratchDir> {
        use std::os::unix::fs::DirBuilderExt;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let path = std::env::temp_dir().join(format!(
                "vax780-campaign-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            match std::fs::DirBuilder::new().mode(0o700).create(&path) {
                Ok(()) => return Ok(ScratchDir(path)),
                // Left behind by a dead process that had our pid.
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `specs` to completion through the queue journal at `journal`
/// (or a private temporary one) on `workers` workers (default
/// [`default_workers`]), and return their measurements in spec order.
///
/// A journal job whose spec is one of `specs` counts for it: a settled
/// one is read back, not re-run. A journal holding any other spec
/// belongs to another campaign and is refused, naming that spec.
///
/// # Errors
///
/// A description of the first journal or server failure, or of every
/// job that settled as failed.
pub fn run_campaign(
    specs: &[JobSpec],
    journal: Option<&Path>,
    workers: Option<usize>,
) -> Result<Campaign, String> {
    let scratch;
    let path = match journal {
        Some(path) => path.to_path_buf(),
        None => {
            scratch = ScratchDir::new().map_err(|e| {
                format!(
                    "campaign journal under {}: {e}",
                    std::env::temp_dir().display()
                )
            })?;
            scratch.0.join("campaign.journal")
        }
    };
    let (ids, unsettled) = enqueue_missing(&path, specs)?;
    let config = ServeConfig {
        journal: path.clone(),
        workers: workers
            .unwrap_or_else(|| default_workers(unsettled))
            .clamp(1, unsettled.max(1)),
        retry: RetryPolicy::from_retries(0),
        drain_on_start: true,
        ..ServeConfig::default()
    };
    let report =
        run_server(&config, None, Arc::new(InProcessExecutor)).map_err(|e| e.to_string())?;

    let settled = Journal::open(&path).map_err(|e| e.to_string())?;
    let mut results = Vec::with_capacity(specs.len());
    let mut failures = Vec::new();
    for &id in &ids {
        match settled.measurement(id).map_err(|e| e.to_string())? {
            Some(m) => results.push(m),
            None => failures.push(
                settled
                    .result_line(id)
                    .map_err(|e| e.to_string())?
                    .unwrap_or_else(|| format!("job {id} did not settle")),
            ),
        }
    }
    if !failures.is_empty() {
        let kept = journal.map_or(String::new(), |_| {
            format!("; {} keeps each failure as settled", path.display())
        });
        return Err(format!(
            "{} of {} job(s) failed{kept}:\n{}",
            failures.len(),
            specs.len(),
            failures.join("\n")
        ));
    }
    let phases: Vec<_> = report
        .metrics
        .workers
        .iter()
        .flat_map(SelfMetrics::phases)
        .collect();
    let walls = ids
        .iter()
        .map(|id| {
            let name = format!("job-{id}");
            phases
                .iter()
                .filter(|p| p.name == name)
                .map(|p| p.wall)
                .sum()
        })
        .collect();
    Ok(Campaign {
        results,
        walls,
        metrics: report.metrics,
    })
}

/// Give every spec a job in the journal at `path`, enqueueing those it
/// does not hold yet. Returns the job ids in spec order and the number
/// of unsettled jobs.
fn enqueue_missing(path: &Path, specs: &[JobSpec]) -> Result<(Vec<JobId>, usize), String> {
    let mut journal = Journal::open(path).map_err(|e| e.to_string())?;
    for w in journal.warnings() {
        eprintln!("vax780 campaign: queue journal {}: {w}", path.display());
    }
    let mut ids: Vec<Option<JobId>> = vec![None; specs.len()];
    let mut restored = 0;
    for job in journal.job_specs() {
        let (id, state, line) = job.map_err(|e| e.to_string())?;
        let Some(k) = JobSpec::parse(&line)
            .ok()
            .and_then(|spec| specs.iter().position(|s| *s == spec))
        else {
            return Err(format!(
                "queue journal {} holds job {id} `{line}`, which is not one of this \
                 campaign's specs; resume it with the options that wrote it, or use a fresh \
                 --checkpoint file",
                path.display()
            ));
        };
        // The first job holding each spec counts for it.
        if ids[k].is_none() {
            ids[k] = Some(id);
            restored += usize::from(state == JobState::Done);
        }
    }
    if restored > 0 {
        eprintln!(
            "resuming: {restored} job(s) restored from {}",
            path.display()
        );
    }
    let ids = specs
        .iter()
        .zip(ids)
        .map(|(spec, id)| match id {
            Some(id) => Ok(id),
            None => journal.append_enqueue(spec).map_err(|e| e.to_string()),
        })
        .collect::<Result<_, _>>()?;
    Ok((ids, journal.counts().0))
}

/// Measure the composite of `kinds` at every point of `grid` — one job
/// per point × workload, `instructions` measured after `warmup` — on
/// the campaign engine, and reduce each point to its [`SweepRow`] in
/// grid order. A point's `wall_secs` is the sum of its jobs' worker
/// phases.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn sweep(
    grid: &SweepGrid,
    kinds: &[WorkloadKind],
    instructions: u64,
    warmup: u64,
    workers: Option<usize>,
) -> Result<(Vec<SweepRow>, CampaignMetrics), String> {
    let specs: Vec<JobSpec> = grid
        .points()
        .iter()
        .flat_map(|point| {
            kinds.iter().map(move |&kind| JobSpec {
                instructions,
                warmup,
                ..JobSpec::at_point(kind, point)
            })
        })
        .collect();
    let campaign = run_campaign(&specs, None, workers)?;
    let per_point = kinds.len().max(1);
    let rows = grid
        .points()
        .iter()
        .zip(campaign.results.chunks(per_point))
        .zip(campaign.walls.chunks(per_point))
        .map(|((point, parts), walls)| {
            let composite = MeasuredWorkload::composite(parts);
            // Simulated work includes warmup: the host paid for it.
            let simulated = composite.instructions + warmup * parts.len() as u64;
            SweepRow::from_analysis(
                point.label.clone(),
                point.axis,
                &composite.analysis(),
                walls.iter().sum(),
                simulated,
            )
        })
        .collect();
    Ok((rows, campaign.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The temporary journal's directory is private, and it is gone,
    /// with whatever the drain wrote in it, once dropped.
    #[test]
    fn scratch_dir_is_private_and_removed_on_drop() {
        use std::os::unix::fs::PermissionsExt;
        let dir = ScratchDir::new().unwrap();
        let path = dir.0.clone();
        std::fs::write(path.join("campaign.journal"), "x").unwrap();
        let mode = std::fs::metadata(&path).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o700);
        assert_ne!(ScratchDir::new().unwrap().0, path);
        drop(dir);
        assert!(!path.exists());
    }
}
