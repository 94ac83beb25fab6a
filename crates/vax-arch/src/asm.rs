//! A small VAX assembler with labels and fixups.
//!
//! The workload generator uses this to emit *real executable machine code*
//! for the simulator: branch displacements, case tables and PC-relative
//! references are resolved at [`Assembler::finish`] time.

use crate::{AccessType, ArchError, DataType, DispSize, Opcode, Operand, Reg};

/// A forward-referencable code location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Assembled code plus its base virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeImage {
    /// Virtual address of the first byte.
    pub base: u32,
    /// The machine code.
    pub bytes: Vec<u8>,
}

impl CodeImage {
    /// Virtual address one past the last byte.
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Is the image empty?
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    /// Byte branch displacement; base is the VA after the displacement byte.
    BranchByte,
    /// Word branch displacement; base is the VA after the displacement word.
    BranchWord,
    /// Case-table word entry; displacement is relative to the table base VA.
    CaseWord { table_base: u32 },
    /// Long PC-relative displacement; base is the VA after the field.
    PcRelLong,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    offset: usize,
    label: Label,
    kind: FixupKind,
    mnemonic: &'static str,
}

/// The assembler. See the crate-level example.
#[derive(Debug)]
pub struct Assembler {
    base: u32,
    bytes: Vec<u8>,
    labels: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
}

impl Assembler {
    /// A new assembler whose first emitted byte lives at `base`.
    pub fn new(base: u32) -> Assembler {
        Assembler {
            base,
            bytes: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Virtual address of the next byte to be emitted.
    pub fn here(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    /// Create a fresh, unplaced label.
    pub fn new_label(&mut self) -> Label {
        let id = self.labels.len() as u32;
        self.labels.push(None);
        Label(id)
    }

    /// Place `label` at the current location.
    ///
    /// # Errors
    ///
    /// [`ArchError::DuplicateLabel`] if the label was already placed.
    pub fn place(&mut self, label: Label) -> Result<(), ArchError> {
        let here = self.here();
        let slot = &mut self.labels[label.0 as usize];
        if slot.is_some() {
            return Err(ArchError::DuplicateLabel(label.0));
        }
        *slot = Some(here);
        Ok(())
    }

    /// Create a label placed at the current location.
    pub fn label_here(&mut self) -> Label {
        let l = self.new_label();
        self.place(l).expect("fresh label cannot be a duplicate");
        l
    }

    /// Emit raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Emit one byte.
    pub fn byte(&mut self, b: u8) {
        self.bytes.push(b);
    }

    /// Emit a little-endian word.
    pub fn word(&mut self, w: u16) {
        self.bytes.extend_from_slice(&w.to_le_bytes());
    }

    /// Emit a little-endian longword.
    pub fn long(&mut self, l: u32) {
        self.bytes.extend_from_slice(&l.to_le_bytes());
    }

    /// Pad with `NOP` opcodes to the next multiple of `align` bytes
    /// (relative to the base address).
    pub fn align(&mut self, align: u32) {
        debug_assert!(align.is_power_of_two());
        while !self.here().is_multiple_of(align) {
            self.byte(Opcode::Nop.to_byte());
        }
    }

    /// Emit an instruction that has no branch displacement.
    ///
    /// Returns the VA of the opcode byte.
    ///
    /// # Errors
    ///
    /// Operand-count mismatches, invalid modes (e.g. writing to a literal)
    /// and instructions that require a displacement are rejected.
    pub fn inst(&mut self, op: Opcode, operands: &[Operand]) -> Result<u32, ArchError> {
        if op.branch_displacement().is_some() {
            return Err(ArchError::BadOperand(format!(
                "{} requires a branch target; use `branch`",
                op.mnemonic()
            )));
        }
        self.emit(op, operands, None)
    }

    /// Emit an instruction whose final operand is a branch displacement to
    /// `target`.
    ///
    /// Returns the VA of the opcode byte.
    ///
    /// # Errors
    ///
    /// As [`Assembler::inst`], plus an error if the opcode takes no
    /// displacement. Displacement overflow is detected at
    /// [`Assembler::finish`].
    pub fn branch(
        &mut self,
        op: Opcode,
        operands: &[Operand],
        target: Label,
    ) -> Result<u32, ArchError> {
        if op.branch_displacement().is_none() {
            return Err(ArchError::BadOperand(format!(
                "{} takes no branch displacement",
                op.mnemonic()
            )));
        }
        self.emit(op, operands, Some(target))
    }

    /// Emit a `CASEx` instruction plus its word displacement table, one
    /// entry per target label.
    ///
    /// `operands` are the selector/base/limit specifiers; `limit` must have
    /// been chosen by the caller to match `targets.len() - 1`.
    ///
    /// # Errors
    ///
    /// As [`Assembler::inst`]; also rejects non-`CASEx` opcodes.
    pub fn case(
        &mut self,
        op: Opcode,
        operands: &[Operand],
        targets: &[Label],
    ) -> Result<u32, ArchError> {
        if !op.has_case_table() {
            return Err(ArchError::BadOperand(format!(
                "{} is not a case instruction",
                op.mnemonic()
            )));
        }
        let va = self.emit(op, operands, None)?;
        let table_base = self.here();
        for &t in targets {
            self.fixups.push(Fixup {
                offset: self.bytes.len(),
                label: t,
                kind: FixupKind::CaseWord { table_base },
                mnemonic: op.mnemonic(),
            });
            self.word(0);
        }
        Ok(va)
    }

    fn emit(
        &mut self,
        op: Opcode,
        operands: &[Operand],
        target: Option<Label>,
    ) -> Result<u32, ArchError> {
        let templates = op.operands();
        let spec_templates: Vec<_> = templates
            .iter()
            .filter(|t| !t.is_branch_displacement())
            .collect();
        if operands.len() != spec_templates.len() {
            return Err(ArchError::OperandCount {
                mnemonic: op.mnemonic(),
                expected: spec_templates.len(),
                got: operands.len(),
            });
        }
        let va = self.here();
        self.byte(op.to_byte());
        for (operand, template) in operands.iter().zip(spec_templates) {
            self.encode_operand(operand, template.access(), template.data_type())?;
        }
        if let Some(label) = target {
            let disp = op
                .branch_displacement()
                .expect("checked by caller")
                .data_type();
            let kind = match disp {
                DataType::Byte => FixupKind::BranchByte,
                DataType::Word => FixupKind::BranchWord,
                other => unreachable!("displacement of type {other}"),
            };
            self.fixups.push(Fixup {
                offset: self.bytes.len(),
                label,
                kind,
                mnemonic: op.mnemonic(),
            });
            match disp {
                DataType::Byte => self.byte(0),
                DataType::Word => self.word(0),
                _ => unreachable!(),
            }
        }
        Ok(va)
    }

    fn encode_operand(
        &mut self,
        operand: &Operand,
        access: AccessType,
        dtype: DataType,
    ) -> Result<(), ArchError> {
        // Literal and immediate modes cannot be written.
        if access.writes_value() && matches!(operand, Operand::Literal(_) | Operand::Immediate(_)) {
            return Err(ArchError::InvalidMode(format!(
                "{operand:?} cannot be the destination of a {access} operand"
            )));
        }
        // Address/field operands must name memory (or a register for field).
        if matches!(access, AccessType::Address) && !operand.is_memory() {
            return Err(ArchError::InvalidMode(format!(
                "{operand:?} cannot supply an address operand"
            )));
        }
        match operand {
            Operand::Literal(v) => {
                if *v > 63 {
                    return Err(ArchError::BadOperand(format!(
                        "short literal {v} out of range 0..=63"
                    )));
                }
                self.byte(*v);
            }
            Operand::Reg(r) => self.byte(0x50 | r.number()),
            Operand::RegDeferred(r) => self.byte(0x60 | r.number()),
            Operand::AutoDecrement(r) => self.byte(0x70 | r.number()),
            Operand::AutoIncrement(r) => self.byte(0x80 | r.number()),
            Operand::AutoIncDeferred(r) => self.byte(0x90 | r.number()),
            Operand::Disp(d, r) => self.encode_disp(false, *d, *r),
            Operand::DispDeferred(d, r) => self.encode_disp(true, *d, *r),
            Operand::Immediate(v) => {
                self.byte(0x80 | Reg::Pc.number());
                let n = dtype.size_bytes() as usize;
                self.bytes.extend_from_slice(&v.to_le_bytes()[..n]);
            }
            Operand::Absolute(addr) => {
                self.byte(0x90 | Reg::Pc.number());
                self.long(*addr);
            }
            Operand::Indexed(base, rx) => {
                self.byte(0x40 | rx.number());
                // The base specifier follows the index prefix; it keeps the
                // operand's access/data type for its own encoding rules.
                self.encode_operand(base, access, dtype)?;
            }
        }
        Ok(())
    }

    fn encode_disp(&mut self, deferred: bool, disp: i32, reg: Reg) {
        let mode_bits = |size: DispSize| -> u8 {
            match (size, deferred) {
                (DispSize::Byte, false) => 0xA0,
                (DispSize::Byte, true) => 0xB0,
                (DispSize::Word, false) => 0xC0,
                (DispSize::Word, true) => 0xD0,
                (DispSize::Long, false) => 0xE0,
                (DispSize::Long, true) => 0xF0,
            }
        };
        let size = DispSize::fitting(disp);
        self.byte(mode_bits(size) | reg.number());
        match size {
            DispSize::Byte => self.byte(disp as i8 as u8),
            DispSize::Word => self.word(disp as i16 as u16),
            DispSize::Long => self.long(disp as u32),
        }
    }

    /// Emit a `MOVAL pcrel, dst` computing the address of `label`
    /// PC-relatively (long displacement, resolved at finish).
    ///
    /// # Errors
    ///
    /// Propagates operand encoding errors for `dst`.
    pub fn moval_pcrel(&mut self, label: Label, dst: Operand) -> Result<u32, ArchError> {
        let va = self.here();
        self.byte(Opcode::Moval.to_byte());
        // Long displacement off PC.
        self.byte(0xE0 | Reg::Pc.number());
        self.fixups.push(Fixup {
            offset: self.bytes.len(),
            label,
            kind: FixupKind::PcRelLong,
            mnemonic: "moval",
        });
        self.long(0);
        self.encode_operand(&dst, AccessType::Write, DataType::Long)?;
        Ok(va)
    }

    /// Resolve all fixups and return the finished image.
    ///
    /// # Errors
    ///
    /// [`ArchError::UnresolvedLabel`] for labels never placed and
    /// [`ArchError::DisplacementOverflow`] for out-of-range branch
    /// displacements.
    pub fn finish(self) -> Result<CodeImage, ArchError> {
        let Assembler {
            base,
            mut bytes,
            labels,
            fixups,
        } = self;
        for fixup in fixups {
            let target =
                labels[fixup.label.0 as usize].ok_or(ArchError::UnresolvedLabel(fixup.label.0))?;
            let field_va = base + fixup.offset as u32;
            match fixup.kind {
                FixupKind::BranchByte => {
                    let next = field_va + 1;
                    let disp = i64::from(target) - i64::from(next);
                    let disp8: i8 =
                        disp.try_into()
                            .map_err(|_| ArchError::DisplacementOverflow {
                                mnemonic: fixup.mnemonic,
                                disp,
                            })?;
                    bytes[fixup.offset] = disp8 as u8;
                }
                FixupKind::BranchWord => {
                    let next = field_va + 2;
                    let disp = i64::from(target) - i64::from(next);
                    let disp16: i16 =
                        disp.try_into()
                            .map_err(|_| ArchError::DisplacementOverflow {
                                mnemonic: fixup.mnemonic,
                                disp,
                            })?;
                    bytes[fixup.offset..fixup.offset + 2]
                        .copy_from_slice(&(disp16 as u16).to_le_bytes());
                }
                FixupKind::CaseWord { table_base } => {
                    let disp = i64::from(target) - i64::from(table_base);
                    let disp16: i16 =
                        disp.try_into()
                            .map_err(|_| ArchError::DisplacementOverflow {
                                mnemonic: fixup.mnemonic,
                                disp,
                            })?;
                    bytes[fixup.offset..fixup.offset + 2]
                        .copy_from_slice(&(disp16 as u16).to_le_bytes());
                }
                FixupKind::PcRelLong => {
                    let next = field_va + 4;
                    let disp = i64::from(target) - i64::from(next);
                    bytes[fixup.offset..fixup.offset + 4]
                        .copy_from_slice(&(disp as i32 as u32).to_le_bytes());
                }
            }
        }
        Ok(CodeImage { base, bytes })
    }
}

/// The condition-reversed form of a simple conditional branch, used for
/// "branch around a `BRW`" long-conditional sequences.
pub(crate) fn reverse_condition(op: Opcode) -> Option<Opcode> {
    Some(match op {
        Opcode::Bneq => Opcode::Beql,
        Opcode::Beql => Opcode::Bneq,
        Opcode::Bgtr => Opcode::Bleq,
        Opcode::Bleq => Opcode::Bgtr,
        Opcode::Bgeq => Opcode::Blss,
        Opcode::Blss => Opcode::Bgeq,
        Opcode::Bgtru => Opcode::Blequ,
        Opcode::Blequ => Opcode::Bgtru,
        Opcode::Bvc => Opcode::Bvs,
        Opcode::Bvs => Opcode::Bvc,
        Opcode::Bcc => Opcode::Bcs,
        Opcode::Bcs => Opcode::Bcc,
        Opcode::Blbs => Opcode::Blbc,
        Opcode::Blbc => Opcode::Blbs,
        _ => return None,
    })
}

impl Assembler {
    /// Emit a conditional branch that can reach any distance: a byte-range
    /// branch if possible is *not* attempted (resolution happens at finish,
    /// so the conservative reversed-condition + `BRW` form is emitted).
    ///
    /// # Errors
    ///
    /// Rejects opcodes that are not simple conditional or low-bit branches.
    pub fn cond_branch_far(
        &mut self,
        op: Opcode,
        operands: &[Operand],
        target: Label,
    ) -> Result<u32, ArchError> {
        let reversed = reverse_condition(op)
            .ok_or_else(|| ArchError::BadOperand(format!("{} is not reversible", op.mnemonic())))?;
        let skip = self.new_label();
        let va = self.branch(reversed, operands, skip)?;
        self.branch(Opcode::Brw, &[], target)?;
        self.place(skip)?;
        Ok(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_register_and_literal_movl() {
        let mut asm = Assembler::new(0);
        asm.inst(Opcode::Movl, &[Operand::Literal(5), Operand::Reg(Reg::R0)])
            .unwrap();
        let img = asm.finish().unwrap();
        assert_eq!(img.bytes, vec![0xD0, 0x05, 0x50]);
    }

    #[test]
    fn encodes_displacement_widths() {
        let mut asm = Assembler::new(0);
        asm.inst(
            Opcode::Movl,
            &[Operand::Disp(4, Reg::R1), Operand::Disp(300, Reg::R2)],
        )
        .unwrap();
        let img = asm.finish().unwrap();
        // movl 4(r1), 300(r2): opcode, A1 04, C2 2C 01
        assert_eq!(img.bytes, vec![0xD0, 0xA1, 0x04, 0xC2, 0x2C, 0x01]);
    }

    #[test]
    fn encodes_immediate_with_operand_size() {
        let mut asm = Assembler::new(0);
        asm.inst(
            Opcode::Movw,
            &[Operand::Immediate(0x1234), Operand::Reg(Reg::R3)],
        )
        .unwrap();
        let img = asm.finish().unwrap();
        assert_eq!(img.bytes, vec![0xB0, 0x8F, 0x34, 0x12, 0x53]);
    }

    #[test]
    fn encodes_indexed_mode() {
        let mut asm = Assembler::new(0);
        let base = Operand::Disp(8, Reg::R1).indexed(Reg::R2).unwrap();
        asm.inst(Opcode::Movl, &[base, Operand::Reg(Reg::R0)])
            .unwrap();
        let img = asm.finish().unwrap();
        assert_eq!(img.bytes, vec![0xD0, 0x42, 0xA1, 0x08, 0x50]);
    }

    #[test]
    fn resolves_backward_branch() {
        let mut asm = Assembler::new(0x100);
        let top = asm.label_here();
        asm.inst(Opcode::Decl, &[Operand::Reg(Reg::R0)]).unwrap();
        asm.branch(Opcode::Bneq, &[], top).unwrap();
        let img = asm.finish().unwrap();
        // decl r0 (2 bytes), bneq -4: opcode at 0x102, disp byte at 0x103,
        // next = 0x104, target 0x100 => disp = -4.
        assert_eq!(img.bytes, vec![0xD7, 0x50, 0x12, 0xFC]);
    }

    #[test]
    fn resolves_forward_branch() {
        let mut asm = Assembler::new(0);
        let out = asm.new_label();
        asm.branch(Opcode::Brb, &[], out).unwrap();
        asm.inst(Opcode::Nop, &[]).unwrap();
        asm.place(out).unwrap();
        let img = asm.finish().unwrap();
        assert_eq!(img.bytes, vec![0x11, 0x01, 0x01]);
    }

    #[test]
    fn rejects_unresolved_label() {
        let mut asm = Assembler::new(0);
        let l = asm.new_label();
        asm.branch(Opcode::Brb, &[], l).unwrap();
        assert!(matches!(asm.finish(), Err(ArchError::UnresolvedLabel(_))));
    }

    #[test]
    fn rejects_byte_displacement_overflow() {
        let mut asm = Assembler::new(0);
        let far = asm.new_label();
        asm.branch(Opcode::Brb, &[], far).unwrap();
        for _ in 0..200 {
            asm.inst(Opcode::Nop, &[]).unwrap();
        }
        asm.place(far).unwrap();
        assert!(matches!(
            asm.finish(),
            Err(ArchError::DisplacementOverflow { .. })
        ));
    }

    #[test]
    fn far_conditional_reaches_distance() {
        let mut asm = Assembler::new(0);
        let far = asm.new_label();
        asm.cond_branch_far(Opcode::Beql, &[], far).unwrap();
        for _ in 0..500 {
            asm.inst(Opcode::Nop, &[]).unwrap();
        }
        asm.place(far).unwrap();
        let img = asm.finish().unwrap();
        // Reversed branch skips the BRW.
        assert_eq!(img.bytes[0], Opcode::Bneq.to_byte());
        assert_eq!(img.bytes[2], Opcode::Brw.to_byte());
    }

    #[test]
    fn case_table_entries_are_relative_to_table_base() {
        let mut asm = Assembler::new(0);
        let a = asm.new_label();
        let b = asm.new_label();
        asm.case(
            Opcode::Casel,
            &[
                Operand::Reg(Reg::R0),
                Operand::Literal(0),
                Operand::Literal(1),
            ],
            &[a, b],
        )
        .unwrap();
        asm.place(a).unwrap();
        asm.inst(Opcode::Nop, &[]).unwrap();
        asm.place(b).unwrap();
        let img = asm.finish().unwrap();
        // casel r0, #0, #1 => CF 50 00 01, table at offset 4 (VA 4).
        let t0 = u16::from_le_bytes([img.bytes[4], img.bytes[5]]);
        let t1 = u16::from_le_bytes([img.bytes[6], img.bytes[7]]);
        assert_eq!(t0, 4); // label a at VA 8, table base 4
        assert_eq!(t1, 5); // label b at VA 9
    }

    #[test]
    fn rejects_write_to_literal() {
        let mut asm = Assembler::new(0);
        let err = asm
            .inst(Opcode::Movl, &[Operand::Reg(Reg::R0), Operand::Literal(3)])
            .unwrap_err();
        assert!(matches!(err, ArchError::InvalidMode(_)));
    }

    #[test]
    fn rejects_wrong_operand_count() {
        let mut asm = Assembler::new(0);
        let err = asm
            .inst(Opcode::Movl, &[Operand::Reg(Reg::R0)])
            .unwrap_err();
        assert!(matches!(err, ArchError::OperandCount { .. }));
    }

    #[test]
    fn moval_pcrel_resolves() {
        let mut asm = Assembler::new(0x1000);
        let data = asm.new_label();
        asm.moval_pcrel(data, Operand::Reg(Reg::R5)).unwrap();
        asm.place(data).unwrap();
        asm.long(0xDEADBEEF);
        let img = asm.finish().unwrap();
        // moval L^disp(pc), r5 = DE EF <4 bytes disp> 55, 7 bytes total.
        let disp = i32::from_le_bytes(img.bytes[2..6].try_into().unwrap());
        // Field at 0x1002, next = 0x1006, target = 0x1007.
        assert_eq!(disp, 1);
        assert_eq!(img.bytes[6], 0x55);
    }
}
