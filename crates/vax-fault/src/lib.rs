//! Deterministic fault injection for the VAX-11/780 model.
//!
//! The real 780 did not only execute the happy path: cache parity errors,
//! SBI timeouts, and translation-buffer corruption all trapped to
//! machine-check microcode, and those recovery cycles were part of the
//! cycle budget Emer & Clark's monitor attributed. This crate supplies
//! the *injection* half of reproducing that behavior: a [`FaultPlan`] of
//! scheduled faults — keyed to cycle counts or µPC addresses — and a
//! [`FaultEngine`] that the memory subsystem owns and the CPU polls,
//! stopping its continuation loop at the engine's [`FaultEngine::due`]
//! cycle. The CPU model owns the *recovery* half (the machine-check
//! microcode paths); the split keeps this crate a leaf with no simulator
//! dependencies.
//!
//! Everything here is deterministic: the same plan (or the same seed)
//! produces the same fault schedule, so an injected campaign is exactly
//! reproducible and its instruments reconcile bit-for-bit across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod plan;

pub use engine::{FaultEngine, FiredFault};
pub use plan::{FaultPlan, FaultTrigger, PlanError, ScheduledFault};

use std::fmt;

/// The modeled 780 fault classes. Each corresponds to a hardware error
/// the real machine survived through machine-check microcode; the
/// recovery cycle costs are the model's stand-ins for the per-class
/// microroutine lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// Cache tag/data parity error: the block cannot be trusted, the
    /// recovery microcode flushes the cache and re-fetches from memory.
    CacheParity,
    /// Translation-buffer entry corruption: recovery invalidates the TB
    /// and lets the miss microcode rebuild it.
    TbCorrupt,
    /// SBI read timeout: a transfer never completed; the SBI is held
    /// busy while the recovery microcode retries the transaction.
    SbiTimeout,
    /// Write-buffer error: the buffered longword is suspect; recovery
    /// forces the buffer to drain before accepting new writes.
    WriteBufferError,
    /// Control-store bit flip: a microword failed parity; recovery
    /// re-reads the backup copy (pure cycle burn, no memory effect).
    ControlStoreBitFlip,
}

impl FaultClass {
    /// All fault classes, in taxonomy order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::CacheParity,
        FaultClass::TbCorrupt,
        FaultClass::SbiTimeout,
        FaultClass::WriteBufferError,
        FaultClass::ControlStoreBitFlip,
    ];

    /// Stable index 0–4.
    pub const fn index(self) -> usize {
        match self {
            FaultClass::CacheParity => 0,
            FaultClass::TbCorrupt => 1,
            FaultClass::SbiTimeout => 2,
            FaultClass::WriteBufferError => 3,
            FaultClass::ControlStoreBitFlip => 4,
        }
    }

    /// Canonical name (used in plans, reports, and the CLI).
    pub const fn name(self) -> &'static str {
        match self {
            FaultClass::CacheParity => "cache-parity",
            FaultClass::TbCorrupt => "tb-corrupt",
            FaultClass::SbiTimeout => "sbi-timeout",
            FaultClass::WriteBufferError => "write-buffer",
            FaultClass::ControlStoreBitFlip => "cs-bit-flip",
        }
    }

    /// Parse a class name. Accepts the canonical names plus the short
    /// aliases the CLI documents (`parity`, `tb`, `sbi`, `wbuf`, `cs`).
    pub fn parse(s: &str) -> Option<FaultClass> {
        match s {
            "cache-parity" | "parity" => Some(FaultClass::CacheParity),
            "tb-corrupt" | "tb" => Some(FaultClass::TbCorrupt),
            "sbi-timeout" | "sbi" => Some(FaultClass::SbiTimeout),
            "write-buffer" | "wbuf" => Some(FaultClass::WriteBufferError),
            "cs-bit-flip" | "cs" => Some(FaultClass::ControlStoreBitFlip),
            _ => None,
        }
    }

    /// Compute cycles the machine-check recovery microroutine burns for
    /// this class (the body length; the entry and abort cycles are
    /// charged separately by the CPU model). The values are scaled to
    /// the model's other service routines: comparable to an interrupt
    /// service (30 body cycles) and longer than a TB miss fill.
    pub const fn recovery_body_cycles(self) -> u32 {
        match self {
            FaultClass::CacheParity => 18,
            FaultClass::TbCorrupt => 14,
            FaultClass::SbiTimeout => 25,
            FaultClass::WriteBufferError => 12,
            FaultClass::ControlStoreBitFlip => 30,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_stable_and_names_round_trip() {
        for (i, &c) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(FaultClass::parse(c.name()), Some(c));
            assert!(c.recovery_body_cycles() > 0);
        }
        assert_eq!(FaultClass::parse("parity"), Some(FaultClass::CacheParity));
        assert_eq!(FaultClass::parse("bogus"), None);
    }
}
