//! Disassembler: render decoded instructions in VAX MACRO-style syntax.
//!
//! Useful for inspecting generated workload code and debugging the CPU
//! model. The notation follows the VAX assembler conventions: `#n` for
//! literals and immediates, `@` for deferred modes, `(Rn)+`/`-(Rn)`
//! for autoincrement/autodecrement, `disp(Rn)` for displacements and
//! `base[Rx]` for index mode.

use crate::{AddrMode, ArchError, DecodedInst, DecodedSpec, Decoder};
use std::fmt::Write as _;

/// Render one decoded specifier.
pub fn format_spec(spec: &DecodedSpec) -> String {
    let base = match spec.mode {
        AddrMode::Literal(v) => format!("#{v}"),
        AddrMode::Register(r) => format!("{r}"),
        AddrMode::RegDeferred(r) => format!("({r})"),
        AddrMode::AutoDecrement(r) => format!("-({r})"),
        AddrMode::AutoIncrement(r) => format!("({r})+"),
        AddrMode::AutoIncDeferred(r) => format!("@({r})+"),
        AddrMode::Displacement { reg, disp, .. } => format!("{disp}({reg})"),
        AddrMode::DisplacementDeferred { reg, disp, .. } => format!("@{disp}({reg})"),
        AddrMode::Immediate { data, .. } => format!("#{data:#x}"),
        AddrMode::Absolute(addr) => format!("@#{addr:#010x}"),
    };
    match spec.index {
        Some(rx) => format!("{base}[{rx}]"),
        None => base,
    }
}

/// Render one decoded instruction. `pc` is the address of the opcode
/// byte; branch displacements render as resolved target addresses.
pub fn format_inst(inst: &DecodedInst, pc: u32) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", inst.opcode.mnemonic());
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        let _ = write!(out, "{}", if *first { "\t" } else { ", " });
        *first = false;
    };
    for spec in &inst.specs {
        sep(&mut out, &mut first);
        let _ = write!(out, "{}", format_spec(spec));
    }
    if let Some(disp) = inst.branch_disp {
        sep(&mut out, &mut first);
        let target = pc.wrapping_add(inst.len).wrapping_add(disp as u32);
        let _ = write!(out, "{target:#010x}");
    }
    out
}

/// Disassemble a byte stream starting at virtual address `base`,
/// producing `(address, length, text)` triples until the stream ends or
/// an undecodable byte is reached (which yields a final `.byte` line).
pub fn disassemble(bytes: &[u8], base: u32) -> Vec<(u32, u32, String)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let pc = base + pos as u32;
        let mut src = crate::SliceSource::new(&bytes[pos..]);
        match Decoder::decode(&mut src) {
            Ok(inst) => {
                let text = format_inst(&inst, pc);
                out.push((pc, inst.len, text));
                pos += inst.len as usize;
                // CASEx: skip its displacement table heuristically is not
                // possible without the limit operand's value; stop decoding
                // linearly after a case instruction.
                if inst.opcode.has_case_table() {
                    break;
                }
            }
            Err(ArchError::Truncated) => break,
            Err(_) => {
                out.push((pc, 1, format!(".byte {:#04x}", bytes[pos])));
                pos += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assembler, Opcode, Operand, Reg};

    fn asm_one(op: Opcode, operands: &[Operand]) -> String {
        let mut asm = Assembler::new(0x1000);
        asm.inst(op, operands).unwrap();
        let img = asm.finish().unwrap();
        let lines = disassemble(&img.bytes, img.base);
        assert_eq!(lines.len(), 1);
        lines[0].2.clone()
    }

    #[test]
    fn formats_common_modes() {
        assert_eq!(
            asm_one(Opcode::Movl, &[Operand::Literal(5), Operand::Reg(Reg::R0)]),
            "movl\t#5, R0"
        );
        assert_eq!(
            asm_one(
                Opcode::Addl2,
                &[Operand::Disp(-4, Reg::R11), Operand::RegDeferred(Reg::R6)]
            ),
            "addl2\t-4(R11), (R6)"
        );
        assert_eq!(
            asm_one(
                Opcode::Movl,
                &[
                    Operand::AutoIncrement(Reg::R6),
                    Operand::AutoDecrement(Reg::R7)
                ]
            ),
            "movl\t(R6)+, -(R7)"
        );
        assert_eq!(
            asm_one(
                Opcode::Movl,
                &[Operand::Absolute(0x8000_0010), Operand::Reg(Reg::R1)]
            ),
            "movl\t@#0x80000010, R1"
        );
    }

    #[test]
    fn formats_indexed_and_deferred() {
        let base = Operand::Disp(8, Reg::R1).indexed(Reg::R5).unwrap();
        assert_eq!(
            asm_one(Opcode::Movl, &[base, Operand::Reg(Reg::R0)]),
            "movl\t8(R1)[R5], R0"
        );
        assert_eq!(
            asm_one(
                Opcode::Movl,
                &[Operand::DispDeferred(12, Reg::R9), Operand::Reg(Reg::R0)]
            ),
            "movl\t@12(R9), R0"
        );
    }

    #[test]
    fn resolves_branch_targets() {
        let mut asm = Assembler::new(0x2000);
        let top = asm.label_here();
        asm.inst(Opcode::Decl, &[Operand::Reg(Reg::R0)]).unwrap();
        asm.branch(Opcode::Bneq, &[], top).unwrap();
        let img = asm.finish().unwrap();
        let lines = disassemble(&img.bytes, img.base);
        assert_eq!(lines[1].2, "bneq\t0x00002000");
    }

    #[test]
    fn undecodable_bytes_become_byte_directives() {
        let lines = disassemble(&[0xFF, 0x01], 0);
        assert_eq!(lines[0].2, ".byte 0xff");
        assert_eq!(lines[1].2, "nop");
    }

    #[test]
    fn disassembles_generated_programs() {
        // Every instruction the assembler can produce must disassemble.
        let mut asm = Assembler::new(0x400);
        asm.inst(
            Opcode::Movc3,
            &[
                Operand::Literal(16),
                Operand::Disp(0, Reg::R6),
                Operand::Disp(0, Reg::R7),
            ],
        )
        .unwrap();
        asm.inst(Opcode::Rsb, &[]).unwrap();
        let img = asm.finish().unwrap();
        let lines = disassemble(&img.bytes, img.base);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].2.starts_with("movc3"));
        assert_eq!(lines[1].2, "rsb");
    }
}
