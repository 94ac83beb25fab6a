//! The continuation loop: engagement, bit-identity, budget exactness,
//! and self-modifying code inside a running loop.
//!
//! The continuation loop is a host-side batching layer: it must retire
//! the same instructions, charge the same cycles, and issue the same
//! µPCs as the naive reference loop. These tests run small images under
//! both loops (`naive_loop`, `default`) and assert exact equality —
//! plus that the continuation loop actually engages under `default`,
//! so the equality is not vacuous.

use upc_monitor::{Command, Histogram, HistogramBoard};
use vax_arch::{Assembler, CodeImage, Opcode, Operand, Reg};
use vax_cpu::harness::SimpleMachine;
use vax_cpu::CpuConfig;

/// A counted loop whose body is five straight-line instructions and a
/// branch, revisited enough times to keep the run going across it.
fn counted_loop_image() -> CodeImage {
    let mut asm = Assembler::new(0x400);
    let top = asm.label_here();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R0)]).unwrap();
    asm.inst(
        Opcode::Addl2,
        &[Operand::Reg(Reg::R0), Operand::Reg(Reg::R1)],
    )
    .unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R0), Operand::Literal(50)])
        .unwrap();
    asm.branch(Opcode::Blss, &[], top).unwrap();
    let done = asm.label_here();
    asm.branch(Opcode::Brb, &[], done).unwrap();
    asm.finish().unwrap()
}

struct Observed {
    r_low: [u32; 8],
    cycles: u64,
    histogram: Histogram,
    continued: u64,
}

fn observe(image: &CodeImage, config: CpuConfig, instructions: u64) -> Observed {
    let mut m = SimpleMachine::with_code_and_config(image, config);
    let mut board = HistogramBoard::new();
    board.execute(Command::Start);
    let outcome = m.cpu.run(instructions, &mut board).unwrap();
    board.execute(Command::Stop);
    let mut r_low = [0u32; 8];
    for (i, slot) in r_low.iter_mut().enumerate() {
        *slot = m.cpu.regs().get(Reg::from_number(i as u8));
    }
    Observed {
        r_low,
        cycles: outcome.cycles,
        histogram: board.into_histogram(),
        continued: m.cpu.block_stats().replayed,
    }
}

fn assert_loops_identical(image: &CodeImage, instructions: u64) -> Observed {
    let naive = observe(image, CpuConfig::naive_loop(), instructions);
    let default = observe(image, CpuConfig::default(), instructions);
    assert_eq!(naive.continued, 0, "naive loop must not continue runs");
    assert_eq!(default.r_low, naive.r_low, "registers diverged");
    assert_eq!(default.cycles, naive.cycles, "cycles diverged");
    assert_eq!(default.histogram, naive.histogram, "µPC histogram diverged");
    default
}

/// The loop body runs inside the continuation loop under the default
/// config and stays bit-identical to the naive loop.
#[test]
fn continuation_engages_and_matches_naive_loop() {
    let image = counted_loop_image();
    let default = assert_loops_identical(&image, 320);
    assert!(
        default.continued > 0,
        "the continuation loop never ran — the equality above is vacuous"
    );
}

/// `Cpu::run(n)` retires exactly `n` instructions with the continuation
/// loop enabled: the budget plumbing must stop a run mid-flight rather
/// than overshoot the target.
#[test]
fn continuation_never_overshoots_an_instruction_budget() {
    let image = counted_loop_image();
    for target in [1u64, 2, 3, 7, 23, 64] {
        let mut m = SimpleMachine::with_code_and_config(&image, CpuConfig::default());
        let mut board = HistogramBoard::new();
        m.cpu.run(target, &mut board).unwrap();
        assert_eq!(
            m.cpu.instructions(),
            target,
            "run({target}) retired a different count"
        );
        // No event source and no resume-unsafe opcode: any budget of two
        // or more runs as one continuation; a budget of one is a step.
        assert_eq!(
            m.cpu.block_stats().replayed,
            if target >= 2 { target } else { 0 },
            "run({target}) was not one continuation"
        );
    }
}

/// Self-modifying code where the patcher and the patched instruction
/// run inside the *same* continuation run. Every execution parses its
/// instruction from the IB, so what the victim sees is decided by the
/// bytes the IB had already prefetched when the store landed — the same
/// under both loops.
///
/// The loop writes `R4` through `(R6)` and then loads an immediate into
/// `R2`. For the first three iterations `R6` aims at scratch memory;
/// after the third, `R6` is re-aimed at the immediate's low byte, so
/// every later iteration's first instruction rewrites an instruction
/// *later in its own run*.
///
/// Built in two passes because the patch address (`MOVL` immediate + 2)
/// is only known once the prefix is assembled; operand encodings are
/// size-stable, so pass two lands every instruction at the same VA.
fn own_loop_smc_image() -> CodeImage {
    let probe = build_smc_image(0x8000);
    build_smc_image(probe.1).0
}

fn build_smc_image(patch_va: u32) -> (CodeImage, u32) {
    let mut asm = Assembler::new(0x400);
    // Aim the patcher at harmless scratch memory first.
    asm.inst(
        Opcode::Movl,
        &[Operand::Immediate(0x8000), Operand::Reg(Reg::R6)],
    )
    .unwrap();
    let top = asm.label_here();
    asm.inst(
        Opcode::Movb,
        &[Operand::Reg(Reg::R4), Operand::RegDeferred(Reg::R6)],
    )
    .unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    asm.inst(Opcode::Nop, &[]).unwrap();
    let victim = asm
        .inst(
            Opcode::Movl,
            &[Operand::Immediate(0x11), Operand::Reg(Reg::R2)],
        )
        .unwrap();
    asm.inst(
        Opcode::Addl2,
        &[Operand::Reg(Reg::R2), Operand::Reg(Reg::R5)],
    )
    .unwrap();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R4)]).unwrap();
    asm.inst(Opcode::Incl, &[Operand::Reg(Reg::R3)]).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R3), Operand::Literal(3)])
        .unwrap();
    let cont = asm.new_label();
    asm.branch(Opcode::Bneq, &[], cont).unwrap();
    // Third iteration only: re-aim the patcher at the victim's
    // immediate low byte (opcode + mode byte = +2).
    asm.inst(
        Opcode::Movl,
        &[
            Operand::Immediate(u64::from(patch_va)),
            Operand::Reg(Reg::R6),
        ],
    )
    .unwrap();
    asm.place(cont).unwrap();
    asm.inst(Opcode::Cmpl, &[Operand::Reg(Reg::R3), Operand::Literal(6)])
        .unwrap();
    asm.branch(Opcode::Blss, &[], top).unwrap();
    let done = asm.label_here();
    asm.branch(Opcode::Brb, &[], done).unwrap();
    (asm.finish().unwrap(), victim + 2)
}

#[test]
fn store_into_the_running_loop_is_observed() {
    let image = own_loop_smc_image();
    let default = assert_loops_identical(&image, 90);
    // The instruction buffer has already prefetched the victim's bytes
    // when the patcher executes, so each patch lands one iteration late
    // (faithful VAX-11/780 behavior — the reference loop agrees):
    // iterations 1–4 load #0x11 (4 × 17 = 68), iterations 5–6 load the
    // patched bytes 3 and 4. Never observing the patches would end
    // with R5 = 102.
    assert_eq!(default.r_low[2], 4, "R2: last patched immediate");
    assert_eq!(default.r_low[3], 6, "R3: iteration count");
    assert_eq!(default.r_low[5], 75, "R5: sum over patched immediates");
    assert!(
        default.continued > 0,
        "patcher and victim never ran in one continuation — same-run patch not exercised"
    );
}
