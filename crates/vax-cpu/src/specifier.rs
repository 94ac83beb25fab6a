//! Specifier microroutines: decode an operand specifier from the IB and
//! evaluate it — address calculation, operand fetch, autoincrement side
//! effects — charging cycles to the SPEC1 / SPEC2-6 rows (paper §3.2:
//! "all access to scalar data, and to the addresses of non-scalar data,
//! are done by specifier microcode").

use crate::cpu::Cpu;
use crate::fault::Fault;
use crate::ffloat;
use crate::operand::{Loc, Operand};
use upc_monitor::CycleSink;
use vax_arch::{AccessType, DataType, OperandTemplate, Reg, SpecModeClass};
use vax_mem::Width;
use vax_ucode::{SpecPosition, StallPoint};

/// An evaluated operand with the metadata the execute phase needs to
/// charge its write-back to the right specifier routine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalOp {
    /// The operand value/location.
    pub op: Operand,
    /// SPEC1 or SPEC2-6.
    pub pos: SpecPosition,
    /// Table 4 mode class (for the write-back µaddress).
    pub class: SpecModeClass,
    /// The operand's data type.
    pub dtype: DataType,
}

impl EvalOp {
    /// 32-bit view of the operand value.
    #[inline]
    pub fn u32(&self) -> u32 {
        self.op.value as u32
    }

    /// 64-bit view of the operand value.
    #[inline]
    pub fn u64(&self) -> u64 {
        self.op.value
    }

    /// The memory address of an address-access operand.
    #[inline]
    pub fn addr(&self) -> u32 {
        self.op.addr()
    }
}

/// Fixed-capacity operand list (VAX instructions have at most six
/// specifiers); avoids per-instruction allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalOps {
    items: [EvalOp; 6],
    len: usize,
}

impl EvalOps {
    pub(crate) fn new() -> EvalOps {
        let dummy = EvalOp {
            op: Operand::value(0),
            pos: SpecPosition::First,
            class: SpecModeClass::Register,
            dtype: DataType::Long,
        };
        EvalOps {
            items: [dummy; 6],
            len: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, op: EvalOp) {
        debug_assert!(self.len < 6, "more than six specifiers");
        self.items[self.len] = op;
        self.len += 1;
    }
}

impl std::ops::Deref for EvalOps {
    type Target = [EvalOp];

    #[inline]
    fn deref(&self) -> &[EvalOp] {
        &self.items[..self.len]
    }
}

/// Natural reference width of a data type (quads are two longwords).
pub(crate) fn width_of(dtype: DataType) -> Width {
    match dtype {
        DataType::Byte => Width::Byte,
        DataType::Word => Width::Word,
        DataType::Long | DataType::FFloat | DataType::Quad | DataType::DFloat => Width::Long,
    }
}

fn is_quad(dtype: DataType) -> bool {
    matches!(dtype, DataType::Quad | DataType::DFloat)
}

/// Expand a 6-bit short literal per the operand data type. For floating
/// types the literal encodes `(8 + frac) / 16 × 2^exp` (VAX Architecture
/// Reference Manual).
pub(crate) fn expand_literal(lit: u8, dtype: DataType) -> u64 {
    debug_assert!(lit < 64);
    match dtype {
        DataType::FFloat => {
            let frac = u64::from(lit & 7);
            let exp = i32::from(lit >> 3);
            let value = ((8 + frac) as f64 / 16.0) * f64::powi(2.0, exp);
            u64::from(ffloat::f_encode(value))
        }
        DataType::DFloat => {
            let frac = u64::from(lit & 7);
            let exp = i32::from(lit >> 3);
            let value = ((8 + frac) as f64 / 16.0) * f64::powi(2.0, exp);
            ffloat::d_encode(value)
        }
        _ => u64::from(lit),
    }
}

fn read_reg_value(cpu: &Cpu, reg: Reg, dtype: DataType) -> u64 {
    if is_quad(dtype) {
        let lo = cpu.regs.get(reg);
        let hi = cpu.regs.get(Reg::from_number((reg.number() + 1) & 0xF));
        u64::from(lo) | (u64::from(hi) << 32)
    } else {
        u64::from(cpu.regs.get(reg))
    }
}

#[inline]
fn pos_of(index: usize) -> SpecPosition {
    if index == 0 {
        SpecPosition::First
    } else {
        SpecPosition::Rest
    }
}

#[inline]
fn point_of(index: usize) -> StallPoint {
    if index == 0 {
        StallPoint::Spec1
    } else {
        StallPoint::Spec2to6
    }
}

/// Evaluate the `index`-th operand specifier of the current instruction:
/// parse it from the IB, then calculate its address, fetch the operand
/// and apply any autoincrement side effect.
pub(crate) fn eval_specifier<S: CycleSink>(
    cpu: &mut Cpu,
    index: usize,
    template: OperandTemplate,
    sink: &mut S,
) -> Result<EvalOp, Fault> {
    let pos = pos_of(index);
    let point = point_of(index);
    let access = template.access();
    let dtype = template.data_type();

    let mut mode_byte = cpu.ib_take_byte(point, sink)?;
    let mut index_reg = None;
    if mode_byte >> 4 == 4 {
        index_reg = Some(Reg::from_number(mode_byte & 0x0F));
        cpu.micro_compute(cpu.cs.spec_index(pos), sink);
        mode_byte = cpu.ib_take_byte(point, sink)?;
    }
    let reg = Reg::from_number(mode_byte & 0x0F);
    let class = classify(mode_byte, reg);
    cpu.micro_compute(cpu.cs.spec_entry(pos, class), sink);

    // Consume and assemble the extension, immediately after the entry
    // cycle: the expanded short literal, the immediate data, the
    // sign-extended displacement (as `u32 as u64`), or the absolute
    // address. 0 for extension-less modes.
    let ext: u64 = match class {
        SpecModeClass::ShortLiteral => expand_literal(mode_byte & 0x3F, dtype),
        SpecModeClass::Immediate => {
            let mut data = 0u64;
            for i in 0..dtype.size_bytes() {
                data |= u64::from(cpu.ib_take_byte(point, sink)?) << (8 * i);
            }
            data
        }
        SpecModeClass::Displacement | SpecModeClass::DisplacementDeferred => match mode_byte >> 4 {
            0xA | 0xB => u64::from(cpu.ib_take_byte(point, sink)? as i8 as i32 as u32),
            0xC | 0xD => u64::from(cpu.ib_take_u16(point, sink)? as i16 as i32 as u32),
            _ => u64::from(cpu.ib_take_u32(point, sink)?),
        },
        SpecModeClass::Absolute => u64::from(cpu.ib_take_u32(point, sink)?),
        _ => 0,
    };

    let op = match class {
        // Extension value already assembled (literal expansion included).
        SpecModeClass::ShortLiteral | SpecModeClass::Immediate => Operand::value(ext),
        SpecModeClass::Register => {
            let value = if access.reads_value() {
                read_reg_value(cpu, reg, dtype)
            } else {
                0
            };
            Operand::reg(reg, value)
        }
        _ => {
            let addr = match class {
                SpecModeClass::RegisterDeferred => cpu.regs.get(reg),
                SpecModeClass::AutoIncrement => {
                    let addr = cpu.regs.get(reg);
                    cpu.regs.set(reg, addr.wrapping_add(dtype.size_bytes()));
                    addr
                }
                SpecModeClass::AutoDecrement => {
                    let addr = cpu.regs.get(reg).wrapping_sub(dtype.size_bytes());
                    cpu.regs.set(reg, addr);
                    addr
                }
                SpecModeClass::AutoIncDeferred => {
                    let ptr = cpu.regs.get(reg);
                    cpu.regs.set(reg, ptr.wrapping_add(4));
                    cpu.micro_compute(cpu.cs.spec_compute(pos, class), sink);
                    cpu.read_data(cpu.cs.spec_read(pos, class), ptr, Width::Long, sink)?
                }
                SpecModeClass::Displacement | SpecModeClass::DisplacementDeferred => {
                    // Byte displacements take the fast path (address add
                    // folded into the entry cycle); wider extensions cost
                    // an extra cycle. Base register read after the
                    // extension, so PC-relative modes see the updated PC.
                    let wide = !matches!(mode_byte >> 4, 0xA | 0xB);
                    if wide || class == SpecModeClass::DisplacementDeferred {
                        cpu.micro_compute(cpu.cs.spec_compute(pos, class), sink);
                    }
                    let base = cpu.regs.get(reg).wrapping_add(ext as u32);
                    if class == SpecModeClass::DisplacementDeferred {
                        cpu.read_data(cpu.cs.spec_read(pos, class), base, Width::Long, sink)?
                    } else {
                        base
                    }
                }
                SpecModeClass::Absolute => ext as u32,
                _ => unreachable!("value modes handled above"),
            };
            let addr = if let Some(rx) = index_reg {
                cpu.micro_compute(cpu.cs.spec_compute(pos, class), sink);
                addr.wrapping_add(cpu.regs.get(rx).wrapping_mul(dtype.size_bytes()))
            } else {
                addr
            };
            // Operand fetch, if the access requires it.
            if access.reads_value() {
                let read_addr = cpu.cs.spec_read(pos, class);
                let value = if is_quad(dtype) {
                    cpu.read_data_u64(read_addr, addr, sink)?
                } else {
                    u64::from(cpu.read_data(read_addr, addr, width_of(dtype), sink)?)
                };
                Operand::mem(addr, value)
            } else {
                Operand::mem(addr, 0)
            }
        }
    };
    // Address-access operands must name memory; register is allowed only
    // for variable bit fields. (The assembler enforces this; decoding raw
    // bytes could violate it, which a real VAX faults on.)
    if access == AccessType::Address && !matches!(op.loc, Loc::Mem(_)) {
        return Err(Fault::ReservedInstruction { opcode: mode_byte });
    }
    Ok(EvalOp {
        op,
        pos,
        class,
        dtype,
    })
}

/// Store an instruction result to a write/modify operand, charging the
/// store to the operand's specifier routine (the paper attributes operand
/// writes to specifier processing, §3.2).
pub(crate) fn store_operand<S: CycleSink>(
    cpu: &mut Cpu,
    eop: &EvalOp,
    value: u64,
    sink: &mut S,
) -> Result<(), Fault> {
    match eop.op.loc {
        Loc::Reg(r) => {
            cpu.micro_compute(cpu.cs.spec_compute(eop.pos, eop.class), sink);
            if is_quad(eop.dtype) {
                cpu.regs.set(r, value as u32);
                cpu.regs.set(
                    Reg::from_number((r.number() + 1) & 0xF),
                    (value >> 32) as u32,
                );
            } else {
                // Sub-longword register writes merge into the low bits.
                let old = cpu.regs.get(r);
                let merged = match eop.dtype {
                    DataType::Byte => (old & !0xFF) | (value as u32 & 0xFF),
                    DataType::Word => (old & !0xFFFF) | (value as u32 & 0xFFFF),
                    _ => value as u32,
                };
                cpu.regs.set(r, merged);
            }
            Ok(())
        }
        Loc::Mem(va) => {
            let write_addr = cpu.cs.spec_write(eop.pos, eop.class);
            if is_quad(eop.dtype) {
                cpu.write_data_u64(write_addr, va, value, sink)
            } else {
                cpu.write_data(write_addr, va, width_of(eop.dtype), value as u32, sink)
            }
        }
        Loc::Value => unreachable!("assembler rejects literal destinations"),
    }
}

fn classify(mode_byte: u8, reg: Reg) -> SpecModeClass {
    match mode_byte >> 4 {
        0..=3 => SpecModeClass::ShortLiteral,
        5 => SpecModeClass::Register,
        6 => SpecModeClass::RegisterDeferred,
        7 => SpecModeClass::AutoDecrement,
        8 => {
            if reg.is_pc() {
                SpecModeClass::Immediate
            } else {
                SpecModeClass::AutoIncrement
            }
        }
        9 => {
            if reg.is_pc() {
                SpecModeClass::Absolute
            } else {
                SpecModeClass::AutoIncDeferred
            }
        }
        0xA | 0xC | 0xE => SpecModeClass::Displacement,
        0xB | 0xD | 0xF => SpecModeClass::DisplacementDeferred,
        _ => unreachable!("index prefix consumed by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_expansion_integer() {
        assert_eq!(expand_literal(42, DataType::Long), 42);
        assert_eq!(expand_literal(63, DataType::Byte), 63);
    }

    #[test]
    fn literal_expansion_float() {
        // Literal 0 encodes 0.5; literal 63 encodes 120.
        let half = expand_literal(0, DataType::FFloat) as u32;
        assert!((ffloat::f_decode(half) - 0.5).abs() < 1e-9);
        let top = expand_literal(63, DataType::FFloat) as u32;
        assert!((ffloat::f_decode(top) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn classify_pc_special_cases() {
        assert_eq!(classify(0x8F, Reg::Pc), SpecModeClass::Immediate);
        assert_eq!(classify(0x9F, Reg::Pc), SpecModeClass::Absolute);
        assert_eq!(classify(0x85, Reg::R5), SpecModeClass::AutoIncrement);
        assert_eq!(classify(0x95, Reg::R5), SpecModeClass::AutoIncDeferred);
        assert_eq!(classify(0xA3, Reg::R3), SpecModeClass::Displacement);
        assert_eq!(classify(0xB3, Reg::R3), SpecModeClass::DisplacementDeferred);
    }

    #[test]
    fn eval_ops_capacity() {
        let mut ops = EvalOps::new();
        for _ in 0..6 {
            ops.push(EvalOp {
                op: Operand::value(1),
                pos: SpecPosition::Rest,
                class: SpecModeClass::Register,
                dtype: DataType::Long,
            });
        }
        assert_eq!(ops.len(), 6);
    }
}
