//! Reproducible benchmark harness for the simulator itself.
//!
//! The paper instruments a real machine; we instrument the *simulator*:
//! each of the five workloads is run under identical machine
//! configurations twice — the naive byte-by-byte reference loop
//! ([`CpuConfig::naive_loop`]) and the default loop with the host fast
//! paths on ([`CpuConfig::default`]) — and the harness reports
//! per-workload sim-MIPS (millions of simulated instructions per host
//! second), wall time, and the speedup of the default over the naive
//! loop.
//!
//! Speed without fidelity is worthless, so the harness also *proves*
//! the two loops are the same machine:
//!
//! * the timing runs must produce **bit-identical** µPC histograms and
//!   hardware counters (and the same simulated cycle count);
//! * per-loop smaller traced runs — the µPC board and the event tracer
//!   tee'd off one [`upc_monitor::CycleSink`] feed — must produce
//!   **bit-identical** event streams, and each run must pass the
//!   three-way trace/histogram/counter reconciliation on its own;
//! * the default loop must actually engage its fast paths (predecode
//!   hits and instructions retired inside the continuation loop), so
//!   the equality can never be vacuous.
//!
//! Any discrepancy is recorded as a divergence and fails the bench
//! (`vax780 bench` exits nonzero), making this a trajectory gate: the
//! default loop is only allowed to be fast, never different.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use upc_monitor::{Command, Histogram, HistogramBoard, NullSink};
use vax780_core::{measure, MeasuredWorkload};
use vax_cpu::CpuConfig;
use vax_mem::{HwCounters, MemConfig};
use vax_trace::Tracer;
use vax_workloads::{build_machine_with_config, profile, WorkloadKind};

/// What to run. The defaults are the pinned CI configuration — change
/// them only through the CLI flags, so `BENCH_*.json` files stay
/// comparable across commits.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Instructions measured per workload in each timing run.
    pub timing_instructions: u64,
    /// Instructions per workload in each traced equivalence run
    /// (smaller: the tracer records every machine event).
    pub trace_instructions: u64,
    /// Warm-up instructions before each measured region.
    pub warmup: u64,
    /// Timing repetitions per loop; the *minimum* wall time is reported.
    /// The minimum, not the mean: simulated work is deterministic, so
    /// the fastest repetition is the one least disturbed by host noise.
    pub repeat: u32,
}

impl Default for BenchSpec {
    fn default() -> BenchSpec {
        BenchSpec {
            timing_instructions: 2_000_000,
            trace_instructions: 20_000,
            warmup: 30_000,
            repeat: 3,
        }
    }
}

/// One workload's timing result.
#[derive(Debug, Clone)]
pub struct WorkloadBench {
    /// Workload name.
    pub name: &'static str,
    /// Instructions measured (identical in both loops by construction).
    pub instructions: u64,
    /// Simulated cycles of the measured region.
    pub cycles: u64,
    /// Host wall time of the naive loop's measured region (best repeat).
    pub naive_wall: Duration,
    /// Host wall time of the default loop's measured region (best repeat).
    pub default_wall: Duration,
    /// Fraction of the default machine's executed instructions (warm-up
    /// plus measured region) retired inside the continuation loop.
    pub continued_share: f64,
}

/// The full benchmark outcome.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The spec that produced this report.
    pub spec: BenchSpec,
    /// Per-workload timing, in [`WorkloadKind::ALL`] order.
    pub workloads: Vec<WorkloadBench>,
    /// Human-readable descriptions of every equivalence violation.
    /// Empty means the default loop is bit-identical to the naive loop
    /// (and actually engaged its fast paths).
    pub divergences: Vec<String>,
}

impl BenchReport {
    /// Did every equivalence check pass?
    pub fn is_equivalent(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Total instructions across all timed workloads.
    pub fn total_instructions(&self) -> u64 {
        self.workloads.iter().map(|w| w.instructions).sum()
    }

    /// Summed naive-loop wall time.
    pub fn naive_wall(&self) -> Duration {
        self.workloads.iter().map(|w| w.naive_wall).sum()
    }

    /// Summed default-loop wall time.
    pub fn default_wall(&self) -> Duration {
        self.workloads.iter().map(|w| w.default_wall).sum()
    }

    /// The report as a JSON document (the `BENCH_*.json` schema: see
    /// DESIGN.md "Host performance").
    pub fn to_json(&self) -> String {
        let walls = |instructions: u64, naive: Duration, default: Duration| {
            format!(
                "\"naive_wall_s\": {:.4}, \"naive_mips\": {:.3}, \"default_wall_s\": {:.4}, \
                 \"default_mips\": {:.3}, \"speedup\": {:.3}",
                naive.as_secs_f64(),
                mips(instructions, naive),
                default.as_secs_f64(),
                mips(instructions, default),
                ratio(naive, default)
            )
        };
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"host\": {},\n",
            vax_trace::HostStamp::collect().to_json()
        ));
        s.push_str(&format!(
            "  \"spec\": {{\"timing_instructions\": {}, \"trace_instructions\": {}, \
             \"warmup\": {}, \"repeat\": {}}},\n",
            self.spec.timing_instructions,
            self.spec.trace_instructions,
            self.spec.warmup,
            self.spec.repeat
        ));
        s.push_str(&format!("  \"equivalent\": {},\n", self.is_equivalent()));
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"instructions\": {}, \"cycles\": {}, {}, \
                 \"continued_share\": {:.4}}}{}\n",
                w.name,
                w.instructions,
                w.cycles,
                walls(w.instructions, w.naive_wall, w.default_wall),
                w.continued_share,
                if i + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"composite\": {{\"instructions\": {}, {}}},\n",
            self.total_instructions(),
            walls(
                self.total_instructions(),
                self.naive_wall(),
                self.default_wall()
            )
        ));
        let divergences: Vec<String> = self
            .divergences
            .iter()
            .map(|d| format!("\"{}\"", d.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        s.push_str(&format!(
            "  \"divergences\": [{}]\n}}\n",
            divergences.join(", ")
        ));
        s
    }

    /// A fixed-width table for terminal output.
    pub fn render_table(&self) -> String {
        let mut s = format!(
            "{:<20} {:>12} {:>9} {:>10} {:>9} {:>12} {:>8}\n",
            "workload",
            "instructions",
            "naive s",
            "naive MIPS",
            "default s",
            "default MIPS",
            "speedup"
        );
        let mut row = |name: &str, instructions: u64, naive: Duration, default: Duration| {
            s.push_str(&format!(
                "{:<20} {:>12} {:>9.3} {:>10.2} {:>9.3} {:>12.2} {:>7.2}x\n",
                name,
                instructions,
                naive.as_secs_f64(),
                mips(instructions, naive),
                default.as_secs_f64(),
                mips(instructions, default),
                ratio(naive, default)
            ));
        };
        for w in &self.workloads {
            row(w.name, w.instructions, w.naive_wall, w.default_wall);
        }
        row(
            "composite",
            self.total_instructions(),
            self.naive_wall(),
            self.default_wall(),
        );
        s
    }
}

fn mips(instructions: u64, wall: Duration) -> f64 {
    instructions as f64 / wall.as_secs_f64().max(1e-9) / 1e6
}

fn ratio(base: Duration, over: Duration) -> f64 {
    base.as_secs_f64() / over.as_secs_f64().max(1e-9)
}

/// One timed measurement: build, warm up (untimed), measure (timed).
/// Returns the measurement, the wall time of the measured region only
/// (so machine construction and warm-up don't pollute sim-MIPS), and
/// the machine's predecode hits and continued instructions.
fn timed_run(
    kind: WorkloadKind,
    config: CpuConfig,
    spec: &BenchSpec,
) -> (MeasuredWorkload, Duration, u64, u64) {
    let mut machine = build_machine_with_config(&profile(kind), config, MemConfig::default());
    machine
        .run_instructions(spec.warmup, &mut NullSink)
        .expect("warmup runs");
    let start = Instant::now();
    let measured = measure(&mut machine, spec.timing_instructions);
    let wall = start.elapsed();
    let hits = machine.cpu.predecode_stats().hits;
    let continued = machine.cpu.block_stats().replayed;
    (measured, wall, hits, continued)
}

/// Everything a traced equivalence run observes.
struct TracedRun {
    tracer: Tracer,
    histogram: Histogram,
    hw: HwCounters,
    reconciles: bool,
}

/// Run `kind` with both instruments attached from boot (the µPC board
/// and the event tracer tee'd off one sink feed), as `vax780 trace`
/// does, and reconcile the instruments.
fn traced_run(kind: WorkloadKind, config: CpuConfig, spec: &BenchSpec) -> TracedRun {
    // Capacity for every event: equivalence on a ring that dropped
    // events would still hold (both runs drop identically) but a full
    // stream makes the check maximally strict.
    let capacity = (spec.trace_instructions as usize)
        .saturating_mul(96)
        .clamp(1 << 16, 1 << 23);
    let mut machine = build_machine_with_config(&profile(kind), config, MemConfig::default());
    let hw_base = *machine.cpu.mem().counters();
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let mut tracer = Tracer::with_capacity(capacity);
    {
        let mut tee = (&mut board, &mut tracer);
        machine
            .run_phase("warmup", spec.warmup.min(5_000), &mut tee)
            .expect("workload runs");
        machine
            .run_phase("measure", spec.trace_instructions, &mut tee)
            .expect("workload runs");
    }
    board.execute(Command::Stop);
    let histogram = board.snapshot();
    let hw = machine.cpu.mem().counters().delta_since(&hw_base);
    let reconciles = vax_analysis::reconcile::reconcile(
        &tracer,
        &histogram,
        &hw,
        machine.cpu.pending_ib_tb_miss(),
    )
    .is_ok();
    TracedRun {
        tracer,
        histogram,
        hw,
        reconciles,
    }
}

/// Compare the default loop's traced run against the naive loop's
/// event-for-event and record every difference into `divergences`.
fn check_traces(name: &str, naive: &TracedRun, run: &TracedRun, divergences: &mut Vec<String>) {
    for (label, traced) in [("naive", naive), ("default", run)] {
        if !traced.reconciles {
            divergences.push(format!(
                "{name}: {label} loop fails instrument reconciliation"
            ));
        }
    }
    if naive.histogram != run.histogram {
        divergences.push(format!("{name}: traced histograms differ"));
    }
    if naive.hw != run.hw {
        divergences.push(format!("{name}: traced hardware counters differ"));
    }
    if naive.tracer.counters() != run.tracer.counters() {
        divergences.push(format!("{name}: trace counters differ"));
    }
    if naive.tracer.now() != run.tracer.now() {
        divergences.push(format!(
            "{name}: derived trace clocks differ ({} vs {})",
            naive.tracer.now(),
            run.tracer.now()
        ));
    }
    if naive.tracer.dropped() != run.tracer.dropped()
        || naive.tracer.len() != run.tracer.len()
        || !naive.tracer.events().eq(run.tracer.events())
    {
        divergences.push(format!("{name}: trace event streams differ"));
    }
}

/// Run the full benchmark: per-workload timing of both loops with
/// bit-identity checks of the default against the naive loop, plus
/// traced-run stream equivalence and three-way reconciliation.
pub fn run_bench(spec: &BenchSpec) -> BenchReport {
    run_bench_with_progress(spec, |_| {})
}

/// [`run_bench`] with a progress callback (one line per completed
/// stage, for interactive use).
pub fn run_bench_with_progress(spec: &BenchSpec, progress: impl Fn(&str)) -> BenchReport {
    let mut workloads = Vec::new();
    let mut divergences = Vec::new();
    for kind in WorkloadKind::ALL {
        let name = kind.name();
        // Interleave the repetitions (naive, default, naive, …) so a
        // burst of host load penalizes both loops alike, and keep each
        // loop's best time.
        let mut naive: Option<(MeasuredWorkload, Duration)> = None;
        let mut default: Option<(MeasuredWorkload, Duration)> = None;
        let mut continued_share = 0.0;
        for rep in 0..spec.repeat.max(1) {
            for (label, config, best) in [
                ("naive", CpuConfig::naive_loop(), &mut naive),
                ("default", CpuConfig::default(), &mut default),
            ] {
                let (m, wall, hits, continued) = timed_run(kind, config, spec);
                if rep == 0 {
                    // Engagement: the measured equality below is only
                    // meaningful if the default loop actually ran its
                    // fast paths. Deterministic simulation: every
                    // repetition sees identical counters.
                    if config.fast_paths {
                        if hits == 0 {
                            divergences.push(format!(
                                "{name}: default loop never hit the predecode cache"
                            ));
                        }
                        if continued == 0 {
                            divergences.push(format!("{name}: default loop never continued a run"));
                        }
                        continued_share =
                            continued as f64 / (spec.warmup + m.instructions).max(1) as f64;
                    }
                    progress(&format!(
                        "{name}: {label} run, {:.2}s (predecode {hits} hits, {continued} continued)",
                        wall.as_secs_f64()
                    ));
                }
                if best.as_ref().is_none_or(|(_, old)| wall < *old) {
                    *best = Some((m, wall));
                }
            }
        }
        let (naive_m, naive_wall) = naive.expect("naive loop was timed");
        let (default_m, default_wall) = default.expect("default loop was timed");
        if naive_m.histogram != default_m.histogram {
            divergences.push(format!("{name}: timed histograms differ"));
        }
        if naive_m.counters != default_m.counters {
            divergences.push(format!("{name}: timed hardware counters differ"));
        }
        if naive_m.cycles != default_m.cycles || naive_m.instructions != default_m.instructions {
            divergences.push(format!(
                "{name}: simulated progress differs ({} insns/{} cycles vs {} insns/{} cycles)",
                naive_m.instructions, naive_m.cycles, default_m.instructions, default_m.cycles
            ));
        }
        check_traces(
            name,
            &traced_run(kind, CpuConfig::naive_loop(), spec),
            &traced_run(kind, CpuConfig::default(), spec),
            &mut divergences,
        );
        progress(&format!("{name}: traces compared"));
        workloads.push(WorkloadBench {
            name,
            instructions: naive_m.instructions,
            cycles: naive_m.cycles,
            naive_wall,
            default_wall,
            continued_share,
        });
    }
    BenchReport {
        spec: *spec,
        workloads,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature bench must come back equivalent — this is the same
    /// machinery the CI gate runs at full size.
    #[test]
    fn mini_bench_is_equivalent() {
        let spec = BenchSpec {
            timing_instructions: 3_000,
            trace_instructions: 2_000,
            warmup: 1_000,
            repeat: 1,
        };
        let report = run_bench(&spec);
        assert!(
            report.is_equivalent(),
            "divergences: {:?}",
            report.divergences
        );
        assert_eq!(report.workloads.len(), 5);
        let json = report.to_json();
        assert!(json.contains("\"equivalent\": true"));
        assert!(json.contains("\"default_mips\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"continued_share\""));
        assert!(!json.contains("tier"));
        for w in &report.workloads {
            assert!(
                w.continued_share > 0.0 && w.continued_share <= 1.0,
                "{}: continuation loop engaged",
                w.name
            );
        }
    }
}
