//! Workload inputs, generated from the workload seed.
//!
//! The seed never reaches the library: it picks profile seeds from the
//! screened pool in `seeds.txt`, and each job spec below follows from
//! its profile seed alone. The simulator sees only those specs and the
//! profiles they build.
//!
//! The pool exists because some profile seeds generate a program that
//! takes an unhandled length violation within a few hundred thousand
//! instructions. Every pooled seed ran every job it can generate, on
//! all three workloads, without one (`screen`).

use crate::Size;
use vax_fault::FaultClass;
use vax_serve::JobSpec;
use vax_workloads::{profile, ProfileParams, WorkloadKind};

/// The seed whose per-job digests `pinned.txt` holds.
pub const DEFAULT_SEED: u64 = 1;

/// The paper's five workload profiles.
pub const PROFILES: usize = WorkloadKind::ALL.len();

/// Faults of each class armed per measured chunk (the plan re-arms at
/// every measurement boundary).
pub const FAULTS_PER_CLASS: u32 = 2;

/// Cycles per instruction the fault window is sized for: the shrunk
/// geometry runs near CPI 20, so the faults scatter over the whole
/// chunk instead of bunching at its start.
const FAULT_WINDOW_CPI: u64 = 20;

/// `campaign` memory points as (cache KiB, cache ways, TB entries,
/// write-buffer depth) overrides: the 11/780 itself, then one ablation
/// each of cache, TB and write buffer.
type MemPoint = (Option<u32>, Option<u32>, Option<u32>, Option<u32>);
const MEM_POINTS: [MemPoint; 4] = [
    (None, None, None, None),
    (Some(2), Some(1), None, None),
    (None, None, Some(32), None),
    (None, None, None, Some(4)),
];

/// `campaign` job kinds: every profile at every memory point.
const JOB_KINDS: usize = PROFILES * MEM_POINTS.len();

const POOL: &str = include_str!("../seeds.txt");

/// The screened profile seeds.
fn pool() -> Vec<u64> {
    POOL.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| u64::from_str_radix(l.trim(), 16).expect("seeds.txt holds hex seeds"))
        .collect()
}

/// SplitMix64 of `seed` and `salt`: an independent-looking value per use.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` pooled profile seeds for the workload seed and `salt`: distinct
/// while `n` fits in the pool, so a run covers as much of it as it can.
fn draws(seed: u64, salt: u64, n: usize) -> Vec<u64> {
    let mut pool = pool();
    // Seeded Fisher-Yates shuffle, then cycle through the shuffled pool.
    for i in (1..pool.len()).rev() {
        let j = (mix(seed, salt ^ (i as u64) << 32) % (i as u64 + 1)) as usize;
        pool.swap(i, j);
    }
    pool.iter().copied().cycle().take(n).collect()
}

fn job(kind: WorkloadKind, seed: u64, warmup: u64, instructions: u64) -> JobSpec {
    let mut spec = JobSpec::new(kind);
    spec.seed = Some(seed);
    spec.warmup = warmup;
    spec.instructions = instructions;
    spec
}

/// The `characterize` job of profile `p`: the default configuration;
/// `instructions` is one measured chunk.
fn characterize_job(p: usize, seed: u64, size: &Size) -> JobSpec {
    job(WorkloadKind::ALL[p], seed, size.warmup, size.chunk)
}

/// The `faulted` job of profile `p`: a 1 KB direct-mapped cache, an
/// 8-entry TB, and a plan of every fault class seeded from `seed`.
fn faulted_job(p: usize, seed: u64, size: &Size) -> JobSpec {
    let mut spec = job(
        WorkloadKind::ALL[p],
        seed,
        size.faulted_warmup,
        size.faulted_chunk,
    );
    spec.cache_kb = Some(1);
    spec.cache_ways = Some(1);
    spec.tb_entries = Some(8);
    arm(spec, mix(seed, p as u64))
}

/// The `campaign` job of kind `i`: profile × memory point.
fn campaign_job(i: usize, seed: u64, size: &Size) -> JobSpec {
    let (cache_kb, cache_ways, tb_entries, write_buffer) = MEM_POINTS[i / PROFILES];
    let mut spec = job(
        WorkloadKind::ALL[i % PROFILES],
        seed,
        size.job_warmup,
        size.job_instructions,
    );
    spec.cache_kb = cache_kb;
    spec.cache_ways = cache_ways;
    spec.tb_entries = tb_entries;
    spec.write_buffer = write_buffer;
    spec
}

/// `spec` with the standard fault plan: `FAULTS_PER_CLASS` of every
/// class, scattered over one measured chunk.
pub fn arm(mut spec: JobSpec, fault_seed: u64) -> JobSpec {
    spec.faults = FaultClass::ALL.to_vec();
    spec.fault_seed = fault_seed;
    spec.fault_count = FAULTS_PER_CLASS;
    spec.fault_window = Some(spec.instructions * FAULT_WINDOW_CPI);
    spec
}

/// `characterize`: `draws` machines per profile at the default
/// configuration, ordered so consecutive machines rotate profiles.
pub fn characterize(seed: u64, size: &Size) -> Vec<JobSpec> {
    per_profile(seed, 0, size.draws, |p, s| characterize_job(p, s, size))
}

/// `faulted`: `faulted_draws` machines per profile on the shrunk
/// geometry, faults armed.
pub fn faulted(seed: u64, size: &Size) -> Vec<JobSpec> {
    per_profile(seed, 10, size.faulted_draws, |p, s| faulted_job(p, s, size))
}

fn per_profile(
    seed: u64,
    salt: u64,
    n: usize,
    job: impl Fn(usize, u64) -> JobSpec,
) -> Vec<JobSpec> {
    let seeds: Vec<Vec<u64>> = (0..PROFILES)
        .map(|p| draws(seed, salt + p as u64, n))
        .collect();
    (0..n)
        .flat_map(|k| (0..PROFILES).map(move |p| (k, p)))
        .map(|(k, p)| job(p, seeds[p][k]))
        .collect()
}

/// `campaign`: short jobs over profile × memory point, each with its
/// own pooled profile seed.
pub fn campaign(seed: u64, size: &Size) -> Vec<JobSpec> {
    draws(seed, 100, size.jobs)
        .into_iter()
        .enumerate()
        .map(|(i, s)| campaign_job(i % JOB_KINDS, s, size))
        .collect()
}

/// The profile a spec builds, its seed override applied.
pub fn params(spec: &JobSpec) -> ProfileParams {
    let mut params = profile(spec.workload);
    if let Some(seed) = spec.seed {
        params.seed = seed;
    }
    params
}

/// Run every job profile seed `seed` can generate at `size`, exactly as
/// the workloads run them; the first failure, if any.
#[cfg(test)]
fn screen(seed: u64, size: &Size) -> Result<(), String> {
    use crate::sim::{measure_chunk, prepare};
    let mut quiet = crate::stats::Spans::new(false);
    for p in 0..PROFILES {
        for (spec, chunks) in [
            (characterize_job(p, seed, size), size.chunks),
            (faulted_job(p, seed, size), size.faulted_chunks),
        ] {
            let mut machine = prepare(&spec, spec.cpu_config(), &mut quiet)?;
            for _ in 0..chunks {
                let armed = !spec.faults.is_empty();
                measure_chunk(&mut machine, spec.instructions, armed, &mut quiet)?;
            }
        }
    }
    for i in 0..JOB_KINDS {
        let spec = campaign_job(i, seed, size);
        std::panic::catch_unwind(|| spec.experiment().run())
            .map_err(|_| format!("campaign job {}: panicked", spec.render()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_valid_and_follow_the_seed() {
        let size = Size::FULL;
        for specs in [
            characterize(3, &size),
            faulted(3, &size),
            campaign(3, &size),
        ] {
            for spec in &specs {
                spec.validate().expect("buildable geometry");
                assert_eq!(JobSpec::parse(&spec.render()).as_ref(), Ok(spec));
                assert!(pool().contains(&spec.seed.expect("seeded")));
            }
        }
        assert_eq!(campaign(3, &size), campaign(3, &size));
        assert_ne!(campaign(3, &size), campaign(4, &size));
        let plan = faulted(3, &size)[0].fault_plan().expect("armed");
        assert_eq!(plan.faults.len(), 5 * FAULTS_PER_CLASS as usize);
    }

    /// Rewrite `seeds.txt`: screen candidate profile seeds at full size
    /// and keep those on which every job runs.
    #[test]
    #[ignore = "rewrites seeds.txt; takes minutes"]
    fn regenerate_seed_pool() {
        const CANDIDATES: u64 = 40;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/seeds.txt");
        let old = std::fs::read_to_string(path).expect("seeds.txt reads");
        let mut text: String = old
            .lines()
            .take_while(|l| l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        for i in 0..CANDIDATES {
            let seed = mix(i, 0x5EED);
            match screen(seed, &Size::FULL) {
                Ok(()) => text.push_str(&format!("{seed:016x}\n")),
                Err(e) => eprintln!("rejected {seed:016x}: {e}"),
            }
        }
        std::fs::write(path, text).expect("seeds.txt writes");
    }
}
