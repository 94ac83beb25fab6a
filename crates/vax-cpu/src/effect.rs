//! The continuation loop's safety claim, and the audit that refutes (or
//! confirms) it against the derived footprints.
//!
//! [`claimed_resume_safe`] is a hand-maintained opcode list.
//! [`vax_ucode::effect`] derives, for every opcode, a conservative
//! effect footprint from the operand templates, the control-store row
//! map, and the static characterization — with no hand list as input.
//! This module compares claim against derivation over **all** opcodes,
//! in both directions:
//!
//! * **Unsound** (an error when linted): the derivation says the opcode
//!   may perturb interrupt state, but the loop claims it safe.
//!   Continuing past such an opcode would skip a fault poll or
//!   arbitration check that is not a provable no-op.
//! * **Foregone** (a warning when linted): the derivation proves the
//!   opcode safe, but the loop claims it unsafe. Nothing breaks — the
//!   loop just returns to the arbitration loop more often than the
//!   tables say it must.
//!
//! The audit is exported (and re-run with an injectable claim) so both
//! the in-crate tests and `vax780 lint --effects` gate on it.

use vax_arch::Opcode;
use vax_ucode::effect::{self, EffectSet};
use vax_ucode::ControlStore;

/// The continuation loop's *claim*: may `Cpu::step_budgeted` keep
/// executing in the same call after this instruction retires? Only
/// instructions that cannot perturb the interrupt state the loop's
/// entry froze: anything touching IPL/SISR/PSL or the address space
/// (MTPR, REI, CHMx, LDPCTX/SVPCTX, HALT, BPT) forces a return to the
/// arbitration loop. Plain PC movers (branches, calls, RSB, JMP, case
/// dispatch) are fine — they redirect execution without making an
/// interrupt deliverable, so the skipped fault poll and arbitration
/// re-check are still provable no-ops.
///
/// This list is hand-maintained; it is audited exhaustively against
/// the derived footprints ([`vax_ucode::effect::derived_resume_safe`])
/// by [`audit_claims`], the tests below, and `vax780 lint --effects`.
pub fn claimed_resume_safe(op: Opcode) -> bool {
    !matches!(
        op,
        Opcode::Halt
            | Opcode::Bpt
            | Opcode::Mtpr
            | Opcode::Ldpctx
            | Opcode::Svpctx
            | Opcode::Rei
            | Opcode::Chmk
            | Opcode::Chme
            | Opcode::Chms
            | Opcode::Chmu
    )
}

/// Which direction the claim diverged from the derived footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Claimed resume-safe, derived unsafe: unsound.
    Unsound,
    /// Derived resume-safe, claimed unsafe: foregone run continuation.
    Forgone,
}

/// One divergence between the claimed classifier and the derived
/// footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditFinding {
    /// The diverging opcode.
    pub op: Opcode,
    /// Which direction.
    pub kind: AuditKind,
    /// The derived footprint, for the diagnostic message.
    pub effects: EffectSet,
}

/// Audit the shipped classifier over every opcode. Empty on a healthy
/// build — any finding is either a soundness bug in the continuation
/// loop or deliberate (and then it should be visible here, not silent).
pub fn audit_claims(cs: &ControlStore) -> Vec<AuditFinding> {
    audit_claims_with(cs, claimed_resume_safe)
}

/// Audit an arbitrary claim function against the derived footprints.
/// The lint pass and the misclassification tests inject claims here;
/// production code always audits the shipped one via [`audit_claims`].
pub fn audit_claims_with(
    cs: &ControlStore,
    claim_resume: impl Fn(Opcode) -> bool,
) -> Vec<AuditFinding> {
    Opcode::ALL
        .iter()
        .filter_map(|&op| {
            let kind = match (claim_resume(op), effect::derived_resume_safe(op, cs)) {
                (true, false) => AuditKind::Unsound,
                (false, true) => AuditKind::Forgone,
                _ => return None,
            };
            Some(AuditFinding {
                op,
                kind,
                effects: effect::derive(op, cs),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive audit, both directions at once: over *every*
    /// opcode, the hand list equals the derived footprint. Claiming too
    /// little is not unsound, but it forgoes continuation, and any gap
    /// between the hand list and the derivation should be deliberate.
    #[test]
    fn shipped_claim_matches_the_derivation_exactly() {
        let cs = ControlStore::build();
        for &op in Opcode::ALL {
            assert_eq!(
                claimed_resume_safe(op),
                effect::derived_resume_safe(op, &cs),
                "{op:?} resume claim diverges from the derived footprint"
            );
        }
        assert!(audit_claims(&cs).is_empty());
    }

    /// A deliberately misclassified claim must be caught, as unsound.
    #[test]
    fn misclassified_claim_is_caught() {
        let cs = ControlStore::build();
        // Claim MTPR (an interrupt-state writer) is resume-safe.
        let findings = audit_claims_with(&cs, |op| op == Opcode::Mtpr || claimed_resume_safe(op));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].op, Opcode::Mtpr);
        assert_eq!(findings[0].kind, AuditKind::Unsound);
    }

    #[test]
    fn forgone_direction_is_reported_too() {
        let cs = ControlStore::build();
        // Claim NOP (provably inert) ends the run: continuation is
        // foregone, and the audit must say so.
        let findings = audit_claims_with(&cs, |op| op != Opcode::Nop && claimed_resume_safe(op));
        let f = findings
            .iter()
            .find(|f| f.op == Opcode::Nop)
            .expect("foregone finding");
        assert_eq!(f.kind, AuditKind::Forgone);
    }
}
