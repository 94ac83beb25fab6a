//! Regression tests for interpreter-loop bugs:
//!
//! * the microcode-patch abort cycle fired at instruction count 0, so
//!   every run was charged a spurious abort on its very first
//!   instruction (and short ablation runs were skewed hardest);
//! * `service_interrupt` computed the PSL push address as `sp + 4`
//!   without wrapping, which overflows (a debug-build panic) when the
//!   stack pointer sits within 8 bytes of zero;
//! * (pinning, audited not-a-bug) a write into only the *tail* bytes of
//!   a predecoded instruction that straddles a 64-byte invalidation
//!   block must still bump `decode_gen` — `note_code_bytes` flags every
//!   block the instruction touches, and this test keeps it that way.

use upc_monitor::{Command, Histogram, HistogramBoard, NullSink};
use vax_arch::{Assembler, Opcode, Operand, Reg};
use vax_cpu::harness::SimpleMachine;
use vax_cpu::{CpuConfig, Interrupt, Mode, Psl, StepOutcome};

/// An R0-incrementing loop, as in the interrupt tests.
fn looping_image() -> vax_arch::CodeImage {
    let mut asm = Assembler::new(0x400);
    let top = asm.label_here();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R0)]).unwrap();
    asm.branch(Opcode::Brb, &[], top).unwrap();
    asm.finish().unwrap()
}

/// Run `instructions` of the loop under `config` from boot, collecting
/// the µPC histogram from the very first instruction, and return the
/// issue count at the abort micro-address plus the total cycle count.
fn abort_issues_after(config: CpuConfig, instructions: u64) -> (u64, u64) {
    let mut m = SimpleMachine::with_code_and_config(&looping_image(), config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(instructions, &mut board).unwrap();
    board.execute(Command::Stop);
    let abort = m.cpu.control_store().abort();
    (board.snapshot().issue(abort), outcome.cycles)
}

/// A patch-abort period longer than the whole run must charge nothing:
/// the run is bit-identical to one with patch aborts disabled. Before
/// the fix, instruction 0 satisfied `count % period == 0` and the first
/// instruction of every run carried a phantom abort cycle.
#[test]
fn patch_abort_never_fires_at_instruction_zero() {
    let long_period = CpuConfig {
        patch_abort_period: 1_000,
        ..CpuConfig::default()
    };
    let disabled = CpuConfig {
        patch_abort_period: 0,
        ..CpuConfig::default()
    };
    // 50 instructions < period: the only count that could fire is 0.
    let (with_period, cycles_a) = abort_issues_after(long_period, 50);
    let (without, cycles_b) = abort_issues_after(disabled, 50);
    // TB-miss microtraps also issue from the abort address, identically
    // in both runs; any difference is the spurious instruction-0 abort.
    assert_eq!(with_period, without, "spurious abort at instruction 0");
    assert_eq!(cycles_a, cycles_b, "cycle counts must match");
}

/// And the steady-rate behavior still holds: counts `period, 2·period,
/// …` each charge exactly one abort cycle.
#[test]
fn patch_abort_fires_once_per_period() {
    let period = CpuConfig {
        patch_abort_period: 10,
        ..CpuConfig::default()
    };
    let disabled = CpuConfig {
        patch_abort_period: 0,
        ..CpuConfig::default()
    };
    // 35 instructions with period 10: aborts at counts 10, 20, 30.
    let (with_period, cycles_a) = abort_issues_after(period, 35);
    let (without, cycles_b) = abort_issues_after(disabled, 35);
    assert_eq!(with_period - without, 3, "aborts at 10, 20, 30 only");
    assert_eq!(cycles_a - cycles_b, 3, "each abort is one cycle");
}

/// Self-modifying code whose target instruction straddles a 64-byte
/// invalidation block, patched through its *tail* bytes only.
///
/// The image pads with `NOP`s so a `MOVL #imm32, R0` starts at VA
/// `0x43B`: its opcode and first three immediate bytes sit in the
/// 64-byte block `[0x400, 0x440)` while the last immediate byte (the
/// value's high byte, at `0x440`) and the register byte spill into the
/// next block. The loop executes the `MOVL` (predecoding it), saves the
/// loaded value, writes `0x99` into `0x440` — tail bytes only — and
/// re-executes the `MOVL`, which must observe the patched immediate.
/// If only the head block were flagged, the replay path would serve the
/// stale parse and `R0` would still read `0x1122_3344`.
fn straddling_smc_image() -> vax_arch::CodeImage {
    let mut asm = Assembler::new(0x400);
    for _ in 0..0x3B {
        asm.inst(Opcode::Nop, &[]).unwrap();
    }
    let top = asm.label_here();
    let movl_at = asm
        .inst(
            Opcode::Movl,
            &[Operand::Immediate(0x1122_3344), Operand::Reg(Reg::R0)],
        )
        .unwrap();
    assert_eq!(movl_at, 0x43B, "padding must land the MOVL at 0x43B");
    asm.inst(Opcode::Tstl, &[Operand::Reg(Reg::R3)]).unwrap();
    let done = asm.new_label();
    asm.branch(Opcode::Bneq, &[], done).unwrap();
    asm.inst(
        Opcode::Movl,
        &[Operand::Reg(Reg::R0), Operand::Reg(Reg::R3)],
    )
    .unwrap();
    // Patch the immediate's high byte — the one byte in the tail block.
    asm.inst(
        Opcode::Movb,
        &[Operand::Immediate(0x99), Operand::Absolute(0x440)],
    )
    .unwrap();
    asm.branch(Opcode::Brb, &[], top).unwrap();
    asm.place(done).unwrap();
    let spin = asm.label_here();
    asm.branch(Opcode::Brb, &[], spin).unwrap();
    asm.finish().unwrap()
}

fn run_straddling_smc(config: CpuConfig) -> (u32, u32, u64, Histogram) {
    let mut m = SimpleMachine::with_code_and_config(&straddling_smc_image(), config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(80, &mut board).unwrap();
    board.execute(Command::Stop);
    (
        m.cpu.regs().get(Reg::R0),
        m.cpu.regs().get(Reg::R3),
        outcome.cycles,
        board.into_histogram(),
    )
}

#[test]
fn tail_byte_write_invalidates_straddling_instruction() {
    let (r0, r3, naive_cycles, naive_hist) = run_straddling_smc(CpuConfig::naive_loop());
    assert_eq!(r3, 0x1122_3344, "first execution saw the original bytes");
    assert_eq!(r0, 0x9922_3344, "re-execution saw the patched tail byte");
    let (f_r0, f_r3, cycles, hist) = run_straddling_smc(CpuConfig::default());
    assert_eq!((f_r0, f_r3), (r0, r3), "stale parse served after patch");
    assert_eq!(cycles, naive_cycles, "cycle count diverged");
    assert_eq!(hist, naive_hist, "histogram diverged");
}

/// Interrupt service with the stack pointer within 8 bytes of zero: the
/// SP decrement wraps, and the PSL slot address (`sp + 4`) must wrap
/// with it instead of overflowing (which panics in debug builds).
#[test]
fn interrupt_service_survives_near_zero_stack_pointer() {
    let mut m = SimpleMachine::with_code(&looping_image());
    m.cpu.psl_mut().ipl = 0;
    // Wedge the interrupt stack pointer just above zero.
    let int_stack_psl = Psl {
        interrupt_stack: true,
        mode: Mode::Kernel,
        ..Psl::default()
    };
    m.cpu.regs_mut().set_banked_sp(&int_stack_psl, 4);
    m.cpu.post_interrupt(Interrupt {
        ipl: 20,
        vector: 0xF0,
    });
    let mut sink = NullSink;
    // Before the fix this step overflowed `sp + 4` and panicked.
    let outcome = m.cpu.step(&mut sink).unwrap();
    assert!(matches!(outcome, StepOutcome::Interrupt));
    assert_eq!(m.cpu.regs().sp(), 4u32.wrapping_sub(8), "SP wrapped");
}
