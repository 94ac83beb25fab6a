//! Compaction crash-safety and streaming regressions.
//!
//! Compaction replaces the journal by write-new-then-rename. A `kill -9`
//! can land at any byte of the new journal's `.tmp` file or after the
//! rename — and every one of those on-disk states must replay to the
//! same queue and, once settled, merge into byte-identical results. The
//! 10k-job test pins the streaming paths: `drain` and `results` go to
//! the wire one record at a time, and their bytes never change across a
//! compaction.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use upc_monitor::Histogram;
use vax780_core::{MeasuredWorkload, RetryPolicy};
use vax_mem::HwCounters;
use vax_serve::wire::Client;
use vax_serve::{run_server, Endpoint, InProcessExecutor, JobSpec, JobState, Journal, ServeConfig};
use vax_ucode::MicroAddr;
use vax_workloads::WorkloadKind;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "{tag}-{}-{}",
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

/// Deterministic synthetic measurement for a seed (no simulation — the
/// tests here exercise the journal, not the machine model).
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

/// Everything an on-disk state replays to, in comparable form: the
/// per-job states, the counts, and the merged result stream.
type Observed = (Vec<(u64, &'static str)>, (usize, usize, usize), String);

fn observe(path: &Path) -> Observed {
    let journal = Journal::open(path).unwrap();
    let states: Vec<(u64, &'static str)> = journal
        .states()
        .map(|(id, state)| (id, state.name()))
        .collect();
    let mut out = Vec::new();
    journal.stream_results(&mut out).unwrap();
    (states, journal.counts(), String::from_utf8(out).unwrap())
}

/// Seed a journal with a mixed history: four settled jobs (one of
/// them failed), one pending job abandoned mid-attempt, one untouched.
fn seed_journal(path: &Path) {
    let mut j = Journal::open(path).unwrap();
    for seed in 1u64..=6 {
        let id = j.append_enqueue(&spec_for(seed)).unwrap();
        match seed {
            3 => {
                j.append_start(id, 1).unwrap();
                j.append_fail(id, 1, "attempt 1/1: synthetic failure")
                    .unwrap();
            }
            1 | 2 | 4 => {
                j.append_start(id, 1).unwrap();
                j.append_complete(id, &synth(seed)).unwrap();
            }
            5 => j.append_start(id, 1).unwrap(), // dangling attempt
            _ => {}
        }
    }
}

/// Settle whatever is still pending, the way a resumed server would.
fn settle_rest(path: &Path) {
    let mut j = Journal::open(path).unwrap();
    for id in j.pending() {
        let (spec, starts) = j.pending_job(id).map(|(s, n)| (s.clone(), n)).unwrap();
        let seed = spec.seed.unwrap();
        j.append_start(id, starts + 1).unwrap();
        j.append_complete(id, &synth(seed)).unwrap();
    }
}

/// Kill -9 mid-compaction, at every byte offset of the new journal and
/// after the rename: each surviving on-disk state opens to the
/// identical queue, and settling the remainder from any of them merges
/// byte-identical results.
#[test]
fn mid_compaction_crash_at_every_byte_offset_merges_bit_identical() {
    let dir = tempdir("vax-serve-compact-crash");

    // The pre-compaction journal and what it replays to.
    let original = dir.join("original.journal");
    seed_journal(&original);
    let journal_bytes = std::fs::read(&original).unwrap();
    let reference = observe(&original);

    // A completed compaction of the same history: the target state.
    let full = dir.join("full.journal");
    std::fs::write(&full, &journal_bytes).unwrap();
    Journal::open(&full).unwrap().compact().unwrap();
    let compacted_bytes = std::fs::read(&full).unwrap();
    assert_eq!(observe(&full), reference, "compaction changed the queue");

    // And the fully-settled end state all crash survivors must reach.
    let settled = dir.join("settled.journal");
    std::fs::write(&settled, &journal_bytes).unwrap();
    settle_rest(&settled);
    let final_reference = observe(&settled);
    assert_eq!(final_reference.1, (0, 5, 1));

    let crash = dir.join("crash.journal");
    let crash_tmp = dir.join("crash.journal.tmp");
    let reset = || {
        for p in [&crash, &crash_tmp] {
            let _ = std::fs::remove_file(p);
        }
    };

    // Family A — killed while writing the new journal: the tmp file
    // holds any prefix, nothing was renamed. The journal is untouched.
    for cut in 0..=compacted_bytes.len() {
        reset();
        std::fs::write(&crash, &journal_bytes).unwrap();
        std::fs::write(&crash_tmp, &compacted_bytes[..cut]).unwrap();
        assert_eq!(observe(&crash), reference, "tmp cut at byte {cut}");
        assert_eq!(std::fs::read(&crash).unwrap(), journal_bytes);
        // Re-running the interrupted compaction lands the real thing.
        Journal::open(&crash).unwrap().compact().unwrap();
        assert_eq!(
            std::fs::read(&crash).unwrap(),
            compacted_bytes,
            "recompacted journal differs (tmp cut at byte {cut})"
        );
        assert!(!crash_tmp.exists(), "tmp cut at byte {cut}");
        assert_eq!(observe(&crash), reference);
    }

    // Family B — killed after the rename: the compacted state.
    reset();
    std::fs::write(&crash, &compacted_bytes).unwrap();
    assert_eq!(observe(&crash), reference, "post-rename state");
    settle_rest(&crash);
    assert_eq!(observe(&crash), final_reference, "post-rename settle");

    // And settling straight from a family-A survivor matches too.
    reset();
    std::fs::write(&crash, &journal_bytes).unwrap();
    std::fs::write(&crash_tmp, &compacted_bytes[..compacted_bytes.len() / 2]).unwrap();
    settle_rest(&crash);
    assert_eq!(observe(&crash), final_reference, "mid-write settle");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A compaction is idempotent at the byte level: compacting an
/// already-compacted journal rewrites the same bytes, and the streamed
/// results never change.
#[test]
fn repeated_compaction_is_stable() {
    let dir = tempdir("vax-serve-compact-stable");
    let path = dir.join("q.journal");
    seed_journal(&path);
    let reference = observe(&path);
    let mut compacted: Option<Vec<u8>> = None;
    for round in 1..=3 {
        let mut j = Journal::open(&path).unwrap();
        j.compact().unwrap();
        assert_eq!(j.settled_in_tail(), 0);
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        if let Some(first) = &compacted {
            assert_eq!(&bytes, first, "round {round}");
        }
        compacted.get_or_insert(bytes);
        assert_eq!(observe(&path), reference, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// 10,000 settled jobs: `results` streaming off the journal, the
/// server's `drain` streaming over a socket, and both again after a
/// compaction, are all byte-identical — and none of them ever holds
/// the result set in memory.
#[test]
fn ten_thousand_job_drain_streams_byte_identical_across_compaction() {
    const N: u64 = 10_000;
    let dir = tempdir("vax-serve-compact-10k");
    let path = dir.join("big.journal");
    {
        let mut j = Journal::open(&path).unwrap();
        for seed in 1..=N {
            let id = j.append_enqueue(&spec_for(seed)).unwrap();
            j.append_start(id, 1).unwrap();
            if seed % 97 == 0 {
                j.append_fail(id, 1, "attempt 1/1: synthetic failure")
                    .unwrap();
            } else {
                j.append_complete(id, &synth(seed)).unwrap();
            }
        }
    }

    let stream = |path: &Path| {
        let journal = Journal::open(path).unwrap();
        let mut out = Vec::new();
        let lines = journal.stream_results(&mut out).unwrap();
        (lines, out)
    };
    let (lines, reference) = stream(&path);
    assert_eq!(lines as u64, N);

    // A draining server must put the same bytes on the wire. All jobs
    // are settled, so the drain is pure streaming.
    let socket = Endpoint::Unix(dir.join("s.sock"));
    let config = ServeConfig {
        journal: path.clone(),
        workers: 1,
        retry: RetryPolicy::from_retries(0),
        drain_on_start: false,
        ..ServeConfig::default()
    };
    let server = {
        let config = config.clone();
        let socket = socket.clone();
        std::thread::spawn(move || run_server(&config, Some(&socket), Arc::new(InProcessExecutor)))
    };
    let client = Client::new(socket.clone(), Duration::from_secs(10));
    let mut wire_bytes = Vec::new();
    let streamed = client.request_stream("drain", &mut wire_bytes).unwrap();
    server.join().unwrap().unwrap();
    assert_eq!(streamed as u64, N);
    assert_eq!(
        wire_bytes, reference,
        "drain bytes differ from results bytes"
    );

    // Compaction moves all 10k jobs into the compacted section; the
    // streams must not move by a byte.
    Journal::open(&path).unwrap().compact().unwrap();
    let (lines, compacted) = stream(&path);
    assert_eq!(lines as u64, N);
    assert_eq!(compacted, reference, "results changed across compaction");

    // The journal still knows every job without rescanning: spot-check
    // states across the range.
    let journal = Journal::open(&path).unwrap();
    assert_eq!(journal.counts().0, 0);
    for id in [1u64, 97, 500, 9_999, 10_000] {
        let expected = if id % 97 == 0 {
            JobState::Failed
        } else {
            JobState::Done
        };
        assert_eq!(journal.state(id), Some(expected), "job {id}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
