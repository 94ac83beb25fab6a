//! `characterize` and `faulted`: the paper's measurement procedure run
//! in this process, one profile machine per job spec.
//!
//! A round builds and warms the five machines (its set-up), then
//! measures `chunks` fixed-size chunks on each, round-robin, reducing
//! every chunk with `MeasuredWorkload::analysis()`. Each chunk is one
//! job: timed from the `measure` call to the reduced `Analysis`.

use crate::check::{digest, Checker};
use crate::stats::{least, median, ratio, Spans};
use crate::{inputs, layers, Metric, Options, Outcome, Workload, E2E_METRICS, MIN_ROUNDS};
use std::time::Instant;
use upc_monitor::NullSink;
use vax780_core::{measure, MeasuredWorkload};
use vax_cpu::CpuConfig;
use vax_fault::FaultEngine;
use vax_serve::JobSpec;
use vax_workloads::{try_build_machine_with_config, Machine};

/// Build and warm the machine for `spec`. A fault plan is installed
/// before the warm-up, so a faulted machine runs the per-cycle fallback
/// path from boot; the plan fires only once `measure` arms it at a
/// measurement boundary, so results equal `Experiment::run`'s.
pub fn prepare(spec: &JobSpec, cpu: CpuConfig, spans: &mut Spans) -> Result<Machine, String> {
    let params = inputs::params(spec);
    let mut machine = spans
        .time("workloads.build", || {
            try_build_machine_with_config(&params, cpu, spec.mem_config())
        })
        .map_err(|e| format!("machine build failed: {e}"))?;
    if let Some(plan) = spec.fault_plan() {
        machine
            .cpu
            .mem_mut()
            .set_fault_hook(Box::new(FaultEngine::new(&plan)));
    }
    let (i0, c0) = (machine.cpu.instructions(), machine.cpu.now());
    spans
        .time("cpu.warmup", || {
            machine.run_instructions(spec.warmup, &mut NullSink)
        })
        .map_err(|e| format!("warm-up failed: {e}"))?;
    spans.add("cpu.instructions", machine.cpu.instructions() - i0);
    spans.add("cpu.cycles", machine.cpu.now() - c0);
    Ok(machine)
}

/// One measured chunk: `measure` then `analysis`, each in its layer's
/// span (`fault.*` stands in for `monitor.*` while a plan is armed).
/// Returns the measurement and its CPI as the journal prints it.
pub fn measure_chunk(
    machine: &mut Machine,
    instructions: u64,
    armed: bool,
    spans: &mut Spans,
) -> Result<(MeasuredWorkload, String), String> {
    let (span, count) = if armed {
        ("fault.measure", "fault.instructions")
    } else {
        ("monitor.measure", "monitor.instructions")
    };
    let m = spans.time(span, || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            measure(machine, instructions)
        }))
    });
    let m = m.map_err(|_| "measurement panicked".to_string())?;
    spans.add(count, m.instructions);
    let analysis = spans.time("analysis.reduce", || m.analysis());
    Ok((m, format!("{:.6}", analysis.cpi())))
}

/// Per-machine cumulative fast-path statistics, into `spans` counts.
pub fn record_tier_stats(machine: &Machine, spans: &mut Spans) {
    let pd = machine.cpu.predecode_stats();
    spans.add("cpu.predecode_hits", pd.hits);
    spans.add("cpu.predecode_lookups", pd.hits + pd.misses);
    spans.add("cpu.block_replayed", machine.cpu.block_stats().replayed);
    spans.add("cpu.retired", machine.cpu.instructions());
}

/// Job name of chunk `chunk` of the `j`-th machine: profile, draw, chunk.
pub fn chunk_job(j: usize, spec: &JobSpec, chunk: usize) -> String {
    format!("{}.{}/{chunk}", spec.workload.name(), j / inputs::PROFILES)
}

pub fn run(options: &Options, started: Instant, deadline: Instant) -> Outcome {
    let size = &options.size;
    let (specs, chunks) = match options.workload {
        Workload::Faulted => (inputs::faulted(options.seed, size), size.faulted_chunks),
        _ => (inputs::characterize(options.seed, size), size.chunks),
    };
    let armed = options.workload == Workload::Faulted;
    let mut checker = Checker::new(options);
    let mut outcome = Outcome::default();
    let mut spans = Spans::new(false);
    // Every round repeats the same deterministic units of work: each
    // machine's set-up and each of its chunks. Their seconds, per unit,
    // over the untraced rounds (and, for the overhead, the traced ones).
    let units = specs.len() * chunks;
    let mut setup_secs: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut chunk_secs: Vec<Vec<f64>> = vec![Vec::new(); units];
    let mut traced_secs: Vec<Vec<f64>> = vec![Vec::new(); units];
    let (mut rounds, mut traced_wall) = (0, 0.0);

    'rounds: for round in 0.. {
        if round >= MIN_ROUNDS && Instant::now() >= deadline {
            break;
        }
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured within one run.
        let traced = options.trace && round % 2 == 1;
        spans.set_enabled(traced);
        let round_start = if round == 0 { started } else { Instant::now() };
        // One machine at a time: built and warmed (set-up), then
        // measured chunk by chunk, then dropped.
        for (j, spec) in specs.iter().enumerate() {
            // Past the deadline an untraced round may stop early: every
            // unit of work already has its `MIN_ROUNDS` repeats.
            if !traced && round >= MIN_ROUNDS && Instant::now() >= deadline {
                break 'rounds;
            }
            let t = if j == 0 { round_start } else { Instant::now() };
            outcome.attempted += 1;
            let mut machine = match prepare(spec, spec.cpu_config(), &mut spans) {
                Ok(m) => m,
                Err(e) => {
                    outcome.failed += 1;
                    checker.fail(&chunk_job(j, spec, 0), &e);
                    break 'rounds;
                }
            };
            if !traced {
                setup_secs[j].push(t.elapsed().as_secs_f64());
            }
            for index in 0..chunks {
                outcome.attempted += 1;
                let t = Instant::now();
                let chunk = measure_chunk(&mut machine, spec.instructions, armed, &mut spans);
                let secs = t.elapsed().as_secs_f64();
                let job = chunk_job(j, spec, index);
                match chunk {
                    Ok((m, cpi)) => {
                        if traced {
                            traced_secs[j * chunks + index].push(secs);
                            layers::record_counters(&m, &mut spans);
                        } else {
                            chunk_secs[j * chunks + index].push(secs);
                        }
                        checker.check(&job, digest(&m), &cpi);
                    }
                    Err(e) => {
                        outcome.failed += 1;
                        checker.fail(&job, &e);
                        break 'rounds;
                    }
                }
            }
            if traced {
                record_tier_stats(&machine, &mut spans);
            }
        }
        if traced {
            traced_wall += round_start.elapsed().as_secs_f64();
            spans.add("rounds", 1);
        } else {
            rounds += 1;
        }
    }
    spans.set_enabled(false);

    // A different seed has no pins: the first chunk of one machine per
    // profile must match the reference interpreter instead.
    if options.seed != inputs::DEFAULT_SEED {
        for (j, spec) in specs.iter().enumerate().take(inputs::PROFILES) {
            let naive = prepare(spec, CpuConfig::naive_loop(), &mut spans)
                .and_then(|mut m| measure_chunk(&mut m, spec.instructions, armed, &mut spans));
            let job = chunk_job(j, spec, 0);
            match naive {
                Ok((m, _)) => checker.cross_check(&job, digest(&m), "the naive loop"),
                Err(e) => checker.fail(&job, &format!("naive loop: {e}")),
            }
        }
    }

    let chunk_insns = specs.first().map_or(0, |s| s.instructions) as f64;
    let best = fastest(&chunk_secs);
    let per_job = ratio(best.iter().sum(), best.len() as f64);
    let values = [
        fastest(&setup_secs).iter().sum(),
        ratio(chunk_insns, per_job) / 1e6,
        ratio(1.0, per_job),
        median(&best) * 1e3,
        crate::peak_rss_mb(),
        1.0 - ratio(outcome.failed as f64, outcome.attempted as f64),
    ];
    outcome.e2e = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    outcome.notes.push(format!(
        "{rounds} untraced rounds of {} machines, {} chunks of {} instructions each",
        specs.len(),
        best.len(),
        chunk_insns,
    ));
    if options.trace {
        let traced: f64 = fastest(&traced_secs).iter().sum();
        let overhead = ratio(traced, best.iter().sum()) - 1.0;
        outcome.layers =
            layers::report(options, &specs, spans, traced_wall, overhead, &mut checker);
    }
    outcome.pins = checker.pin_lines();
    outcome.mismatches = checker.mismatches;
    outcome
}

/// Each unit's fastest repeat. The work of a unit is the same in every
/// round, so its fastest time is its cost on an uncontended host; a
/// contention episode must cover every repeat to move it.
fn fastest(secs: &[Vec<f64>]) -> Vec<f64> {
    secs.iter()
        .filter(|s| !s.is_empty())
        .map(|s| least(s))
        .collect()
}
