//! Derived per-opcode effect footprints.
//!
//! The continuation loop (vax-cpu) rests on an opcode classifier —
//! "cannot perturb interrupt state" — that was written by hand. The
//! paper's lesson is to trust derivation
//! and measurement over documentation, so this module *derives* a
//! conservative effect footprint for every opcode from three
//! independent sources that were each built for other reasons:
//!
//! 1. the architectural operand templates and branch classes
//!    (`vax-arch`): what the instruction declares it reads, writes,
//!    and where it can send PC;
//! 2. control-store region membership (`ControlStore::class`): which
//!    Table 8 execute row the opcode's microroutine lives in — the
//!    System row is exactly the microcode that may touch IPL, SISR,
//!    the PSL privilege bits, or the address space;
//! 3. the static characterization (`model::exec_cost`): which opcodes
//!    the probe refuses to drive (privileged), which take a canonical
//!    branch redirect, and which are provably inert (zero issues at
//!    every execute slot).
//!
//! No hand list of opcodes appears anywhere below: every rule is a
//! predicate over those tables. The derived footprints are compared
//! against the continuation loop's hand classifier by `vax-cpu`'s
//! effect audit (and by `vax780 lint --effects`), in both directions —
//! a derived-unsafe opcode claimed safe is unsound (error); a
//! derived-safe opcode claimed unsafe is foregone coverage (warning).
//!
//! # Why the System-row rule is shaped the way it is
//!
//! An opcode in the System execute row manipulates machine state, but
//! only some System-row opcodes perturb the *interrupt-relevant* state
//! the continuation loop freezes. The discriminating observation: a System
//! opcode whose only architecturally visible destination is a normal
//! operand (MFPR's `.wl`, PROBEx's condition codes via `.ab` probes,
//! INSQUE/REMQUE's queue words) cannot be the instruction that raises
//! IPL or switches address space — those effects have no operand to
//! flow through, so opcodes that produce them declare *no* writable
//! operand at all (HALT, LDPCTX, SVPCTX) or only `.rx` sources (MTPR).
//! Conversely an operand-less System opcode that the characterization
//! proves inert (NOP: zero issues at every slot, no redirect) has no
//! microcode left to perturb anything with.

use crate::model;
use crate::{ControlStore, Row};
use std::fmt;
use vax_arch::{AccessType, BranchClass, Opcode, OpcodeGroup};

/// A conservative, derived set of architectural effects an opcode may
/// have. "May": every bit is an over-approximation — absence of a bit
/// is a proof, presence is a possibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EffectSet(u16);

impl EffectSet {
    /// The empty footprint (a provably inert instruction).
    pub const EMPTY: EffectSet = EffectSet(0);
    /// May load PC with something other than the next sequential
    /// instruction (branches, calls, returns, case dispatch, traps).
    pub const REDIRECTS_PC: EffectSet = EffectSet(1 << 0);
    /// May write interrupt-relevant machine state: PSL privilege
    /// bits/mode, IPL, SISR, or the address space mapping.
    pub const WRITES_INTERRUPT_STATE: EffectSet = EffectSet(1 << 1);
    /// Touches privileged processor registers or is refused by the
    /// user-mode characterization probe.
    pub const PRIVILEGED: EffectSet = EffectSet(1 << 2);
    /// May store to memory (through an operand or its microroutine).
    pub const WRITES_MEMORY: EffectSet = EffectSet(1 << 3);
    /// May read memory (operand fetch or microroutine D-stream read).
    pub const READS_MEMORY: EffectSet = EffectSet(1 << 4);
    /// May take a fault mid-instruction (memory reference or trap).
    pub const MAY_FAULT: EffectSet = EffectSet(1 << 5);
    /// Iterates internally: string/decimal element loops or a counted
    /// loop branch.
    pub const ITERATES: EffectSet = EffectSet(1 << 6);

    /// Set union.
    #[must_use]
    pub const fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Does this footprint contain every bit of `other`?
    pub const fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Is this the empty footprint?
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// All `(bit, name)` pairs, for rendering and JSON export.
    pub const NAMES: &'static [(EffectSet, &'static str)] = &[
        (EffectSet::REDIRECTS_PC, "redirects-pc"),
        (EffectSet::WRITES_INTERRUPT_STATE, "writes-interrupt-state"),
        (EffectSet::PRIVILEGED, "privileged"),
        (EffectSet::WRITES_MEMORY, "writes-memory"),
        (EffectSet::READS_MEMORY, "reads-memory"),
        (EffectSet::MAY_FAULT, "may-fault"),
        (EffectSet::ITERATES, "iterates"),
    ];
}

impl std::ops::BitOr for EffectSet {
    type Output = EffectSet;
    fn bitor(self, rhs: EffectSet) -> EffectSet {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for EffectSet {
    fn bitor_assign(&mut self, rhs: EffectSet) {
        *self = self.union(rhs);
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "inert");
        }
        let mut first = true;
        for &(bit, name) in EffectSet::NAMES {
            if self.contains(bit) {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Is the opcode's execute routine provably inert — characterized with
/// zero issues at every execute slot and no canonical redirect? (Only
/// a characterized opcode can be proven inert; an uncharacterized one
/// stays conservative.)
fn provably_inert(op: Opcode) -> bool {
    matches!(
        model::exec_cost(op),
        Some(c) if c.compute == 0 && c.read == 0 && c.write == 0 && c.taken.is_none()
    )
}

/// Derive the conservative effect footprint of one opcode from the
/// operand templates, the branch classes, the control-store row map,
/// and the static characterization. No opcode is named in the rules.
pub fn derive(op: Opcode, cs: &ControlStore) -> EffectSet {
    let mut fx = EffectSet::EMPTY;
    let templates = op.operands();
    let cost = model::exec_cost(op);

    // --- architectural branch classes --------------------------------
    if let Some(bc) = op.branch_class() {
        fx |= EffectSet::REDIRECTS_PC;
        if bc == BranchClass::SystemBranch {
            // REI/CHMx/BPT redirects pop or push PSL: mode, IPL and
            // the privilege bits all change with the transfer.
            fx |= EffectSet::WRITES_INTERRUPT_STATE | EffectSet::MAY_FAULT;
        }
        if bc == BranchClass::Loop {
            fx |= EffectSet::ITERATES;
        }
    }

    // --- control-store execute-row membership ------------------------
    let row = cs.class(cs.exec_entry(op)).row;
    if row == Row::Exec(OpcodeGroup::System) {
        // A System-row opcode with no writable/address operand has no
        // operand its effect could flow through: whatever it does lands
        // directly in machine state (IPL, SISR, PSL, address space) —
        // unless the characterization proves the routine inert.
        let has_operand_dest = templates.iter().any(|t| {
            matches!(
                t.access(),
                AccessType::Write | AccessType::Modify | AccessType::Address | AccessType::Field
            )
        });
        if !has_operand_dest && !provably_inert(op) {
            fx |= EffectSet::WRITES_INTERRUPT_STATE | EffectSet::PRIVILEGED;
        }
    }
    if matches!(
        row,
        Row::Exec(OpcodeGroup::Character) | Row::Exec(OpcodeGroup::Decimal)
    ) {
        fx |= EffectSet::ITERATES;
    }

    // --- static characterization -------------------------------------
    match cost {
        // The probe refuses to drive it from user mode: privileged.
        None => fx |= EffectSet::PRIVILEGED,
        Some(c) => {
            if c.read > 0 {
                fx |= EffectSet::READS_MEMORY | EffectSet::MAY_FAULT;
            }
            if c.write > 0 {
                fx |= EffectSet::WRITES_MEMORY | EffectSet::MAY_FAULT;
            }
        }
    }

    // --- operand templates -------------------------------------------
    for t in templates {
        match t.access() {
            AccessType::Read => {
                fx |= EffectSet::READS_MEMORY | EffectSet::MAY_FAULT;
            }
            AccessType::Write => {
                fx |= EffectSet::WRITES_MEMORY | EffectSet::MAY_FAULT;
            }
            AccessType::Modify | AccessType::Field | AccessType::Address => {
                // `.ax`/`.vx` hand the routine an address or field base
                // whose access direction is opcode-specific: assume both.
                fx |= EffectSet::READS_MEMORY | EffectSet::WRITES_MEMORY | EffectSet::MAY_FAULT;
            }
            // A branch displacement is I-stream data, not a specifier.
            AccessType::Branch => {}
        }
    }

    fx
}

/// Derived form of the continuation loop's "may the run continue after
/// this instruction retires" claim: redirecting PC is fine (the loop
/// follows it), perturbing interrupt state is not.
pub fn derived_resume_safe(op: Opcode, cs: &ControlStore) -> bool {
    !derive(op, cs).contains(EffectSet::WRITES_INTERRUPT_STATE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redirect_bit_equals_the_architectural_branch_table() {
        let cs = ControlStore::build();
        for &op in Opcode::ALL {
            assert_eq!(
                derive(op, &cs).contains(EffectSet::REDIRECTS_PC),
                op.is_pc_changing(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn nop_is_the_only_provably_inert_system_row_opcode() {
        let cs = ControlStore::build();
        for &op in Opcode::ALL {
            if cs.class(cs.exec_entry(op)).row == Row::Exec(OpcodeGroup::System) {
                assert_eq!(provably_inert(op), op == Opcode::Nop, "{op:?}");
            }
        }
    }

    #[test]
    fn interrupt_state_writers_are_exactly_the_uncontinuable_set() {
        // Regression pin: the derived interrupt-state writers. This is
        // the theorem the continuation loop's classifier must match —
        // pinned here so a table change that silently grows or shrinks
        // the set is visible in this crate, next to the tables.
        let cs = ControlStore::build();
        let writers: Vec<Opcode> = Opcode::ALL
            .iter()
            .copied()
            .filter(|&op| derive(op, &cs).contains(EffectSet::WRITES_INTERRUPT_STATE))
            .collect();
        assert_eq!(
            writers,
            vec![
                Opcode::Halt,
                Opcode::Rei,
                Opcode::Bpt,
                Opcode::Ldpctx,
                Opcode::Svpctx,
                Opcode::Chmk,
                Opcode::Chme,
                Opcode::Chms,
                Opcode::Chmu,
                Opcode::Mtpr,
            ]
        );
    }

    #[test]
    fn memory_write_bit_covers_every_writable_template() {
        let cs = ControlStore::build();
        for &op in Opcode::ALL {
            if op.operands().iter().any(|t| {
                matches!(
                    t.access(),
                    AccessType::Write | AccessType::Modify | AccessType::Address
                )
            }) {
                assert!(derive(op, &cs).contains(EffectSet::WRITES_MEMORY), "{op:?}");
            }
        }
    }

    #[test]
    fn display_renders_names() {
        assert_eq!(EffectSet::EMPTY.to_string(), "inert");
        let fx = EffectSet::REDIRECTS_PC | EffectSet::MAY_FAULT;
        assert_eq!(fx.to_string(), "redirects-pc+may-fault");
    }
}
