//! A single measurement experiment on one workload.

use std::time::Instant;
use upc_monitor::{Command, Histogram, HistogramBoard, NullSink};
use vax_analysis::Analysis;
use vax_cpu::{CpuConfig, CpuError};
use vax_fault::{FaultEngine, FaultPlan};
use vax_mem::{HwCounters, MemConfig};
use vax_ucode::ControlStore;
use vax_workloads::{build_machine_with_config, profile, ProfileParams, WorkloadKind};

/// One workload measurement: build, warm up, measure.
#[derive(Debug, Clone)]
pub struct Experiment {
    params: ProfileParams,
    cpu_config: CpuConfig,
    mem_config: MemConfig,
    warmup_instructions: u64,
    instructions: u64,
    fault_plan: Option<FaultPlan>,
}

impl Experiment {
    /// An experiment on one of the paper's five workloads, with default
    /// lengths suitable for tests and quick runs.
    pub fn new(kind: WorkloadKind) -> Experiment {
        Experiment::with_params(profile(kind))
    }

    /// An experiment on custom profile parameters.
    pub fn with_params(params: ProfileParams) -> Experiment {
        Experiment {
            params,
            cpu_config: CpuConfig::default(),
            mem_config: MemConfig::default(),
            warmup_instructions: 30_000,
            instructions: 200_000,
            fault_plan: None,
        }
    }

    /// Set the measured instruction count.
    pub fn instructions(mut self, n: u64) -> Experiment {
        self.instructions = n;
        self
    }

    /// Set the warm-up length (cache/TB steady state before measuring).
    pub fn warmup(mut self, n: u64) -> Experiment {
        self.warmup_instructions = n;
        self
    }

    /// Override the CPU configuration (ablations).
    pub fn cpu_config(mut self, config: CpuConfig) -> Experiment {
        self.cpu_config = config;
        self
    }

    /// Override the memory configuration (ablations).
    pub fn mem_config(mut self, config: MemConfig) -> Experiment {
        self.mem_config = config;
        self
    }

    /// Install a fault-injection plan. The engine is armed at the
    /// measurement boundary, so `@cycle` trigger offsets count from the
    /// first measured cycle — warmup never takes faults.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Experiment {
        self.fault_plan = Some(plan);
        self
    }

    /// Run the measurement.
    ///
    /// # Panics
    ///
    /// Panics if the machine halts or faults unrecoverably — generated
    /// workloads never should; such a panic is a model bug.
    pub fn run(&self) -> MeasuredWorkload {
        self.run_until(None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Experiment::run`], but stopped once `deadline` has passed: the
    /// warm-up and measurement loops read the clock between steps when
    /// a deadline is set.
    ///
    /// # Errors
    ///
    /// [`RunError::Deadline`] once the deadline has passed, or
    /// [`RunError::Fault`] if the machine halts or faults unrecoverably.
    pub fn run_until(&self, deadline: Option<Instant>) -> Result<MeasuredWorkload, RunError> {
        // Debug builds refuse structurally broken workloads up front;
        // release campaigns skip the analysis cost. The gate memoizes
        // per (profile, seed), so sweeps pay it once.
        #[cfg(debug_assertions)]
        vax_lint::debug_gate(&self.params);
        let mut machine = build_machine_with_config(&self.params, self.cpu_config, self.mem_config);
        let mut null = NullSink;
        // Warm-up: caches, TB, scheduler all reach steady state.
        let target = machine.cpu.instructions() + self.warmup_instructions;
        while machine.cpu.instructions() < target {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RunError::Deadline);
            }
            let remaining = target - machine.cpu.instructions();
            machine.step_budgeted(remaining, &mut null)?;
        }
        if let Some(plan) = &self.fault_plan {
            machine
                .cpu
                .mem_mut()
                .set_fault_hook(Box::new(FaultEngine::new(plan)));
        }
        measure_until(&mut machine, self.instructions, deadline)
    }
}

/// Measure `instructions` retired instructions on an already-warmed
/// machine: clear the second instrument at the measurement boundary,
/// attach the µPC board, and step with the Null-process exclusion.
///
/// Both instruments observe the same cycles: while the idle loop runs,
/// the histogram board is bypassed (§2.2) AND the hardware counters are
/// rolled back over the step, so counter-derived per-instruction rates
/// stay commensurate with the histogram instead of being inflated by
/// idle cache/TB/SBI traffic the board never saw.
///
/// # Panics
///
/// Panics if the machine halts or faults unrecoverably (a model bug).
pub fn measure(machine: &mut vax_workloads::Machine, instructions: u64) -> MeasuredWorkload {
    measure_until(machine, instructions, None).unwrap_or_else(|e| panic!("{e}"))
}

/// [`measure`], but stopped once `deadline` has passed, and a fault
/// returned rather than raised.
fn measure_until(
    machine: &mut vax_workloads::Machine,
    instructions: u64,
    deadline: Option<Instant>,
) -> Result<MeasuredWorkload, RunError> {
    let mut null = NullSink;
    // Measurement boundary: clear the second instrument too, and arm
    // any installed fault engine so trigger offsets count from here.
    machine.cpu.mem_mut().counters_mut().clear();
    let insns_before = machine.cpu.instructions();
    let cycles_before = machine.cpu.now();
    machine.cpu.mem_mut().arm_fault_hook(cycles_before);

    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    while machine.cpu.instructions() - insns_before < instructions {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RunError::Deadline);
        }
        if machine.at_idle() {
            // One step at a time: the idle exclusion is re-evaluated at
            // every instruction boundary.
            let suspended = *machine.cpu.mem().counters();
            machine.step(&mut null)?;
            *machine.cpu.mem_mut().counters_mut() = suspended;
        } else {
            // Busy: let the continuation loop retire a run, but never
            // past the measurement target. Mid-run PCs can never be the
            // idle PC: the Null process is entered only by `REI`, which
            // is resume-unsafe and so ends the run — so the exclusion
            // stays exact.
            let remaining = instructions - (machine.cpu.instructions() - insns_before);
            machine.step_budgeted(remaining, &mut board)?;
        }
    }
    board.execute(Command::Stop);

    Ok(MeasuredWorkload {
        name: machine.name,
        histogram: board.into_histogram(),
        counters: *machine.cpu.mem().counters(),
        instructions: machine.cpu.instructions() - insns_before,
        cycles: machine.cpu.now() - cycles_before,
    })
}

/// Why a run stopped without a measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The deadline passed before the run finished.
    Deadline,
    /// The machine halted or faulted unrecoverably. Generated workloads
    /// never should; the error names the fault, its address and the pc.
    Fault(CpuError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadline => write!(f, "deadline passed"),
            RunError::Fault(e) => write!(f, "workload fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CpuError> for RunError {
    fn from(e: CpuError) -> RunError {
        RunError::Fault(e)
    }
}

/// The outcome of one measured workload.
#[derive(Debug, Clone)]
pub struct MeasuredWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The raw µPC histogram.
    pub histogram: Histogram,
    /// The second instrument's counters.
    pub counters: HwCounters,
    /// Instructions retired while measuring.
    pub instructions: u64,
    /// Cycles elapsed while measuring.
    pub cycles: u64,
}

impl MeasuredWorkload {
    /// The composite of `parts`, "the sum of the five µPC histograms"
    /// (§2.2): histograms and counters merged, lengths summed, in the
    /// order given.
    pub fn composite(parts: &[MeasuredWorkload]) -> MeasuredWorkload {
        let mut sum = MeasuredWorkload {
            name: "composite",
            histogram: Histogram::new(),
            counters: HwCounters::new(),
            instructions: 0,
            cycles: 0,
        };
        for part in parts {
            sum.histogram.merge(&part.histogram);
            sum.counters.merge(&part.counters);
            sum.instructions += part.instructions;
            sum.cycles += part.cycles;
        }
        sum
    }

    /// Digest with the standard microcode listing.
    pub fn analysis(&self) -> Analysis {
        let cs = ControlStore::build();
        Analysis::new(&self.histogram, &cs, &self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_produces_consistent_measurement() {
        let m = Experiment::new(WorkloadKind::TimesharingLight)
            .warmup(5_000)
            .instructions(20_000)
            .run();
        let a = m.analysis();
        // The histogram's own instruction count is close to the retired
        // count (interrupt services execute instructions too, so the
        // exec-entry count can exceed the boundary by a few).
        let ratio = a.instructions() as f64 / m.instructions as f64;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
        // Every cycle classified.
        assert!(a.total_cycles() > 0);
        let cpi = a.cpi();
        assert!((3.0..25.0).contains(&cpi), "CPI {cpi}");
    }

    /// A deadline that has already passed stops the run at the first
    /// clock check, on the calling thread: no measurement, and none of
    /// the 50M instructions the full run would need.
    #[test]
    fn an_expired_deadline_returns_no_measurement_promptly() {
        let started = Instant::now();
        let exp = Experiment::new(WorkloadKind::TimesharingHeavy)
            .warmup(1_000)
            .instructions(50_000_000);
        assert_eq!(exp.run_until(Some(started)).err(), Some(RunError::Deadline));
        let mut machine = vax_workloads::build_machine(&profile(WorkloadKind::SciEng));
        let before = machine.cpu.instructions();
        assert_eq!(
            measure_until(&mut machine, 50_000_000, Some(started)).err(),
            Some(RunError::Deadline)
        );
        assert_eq!(machine.cpu.instructions(), before, "nothing simulated");
        assert!(
            started.elapsed().as_secs() < 30,
            "took {:?}",
            started.elapsed()
        );
    }
}
