//! Cycle-level model of the VAX-11/780 CPU pipeline.
//!
//! Implements the left-hand half of the paper's Figure 1: the I-Fetch
//! stage (8-byte instruction buffer with longword prefetch), the I-Decode
//! stage (one non-overlapped decode cycle per instruction, IB-stall
//! dispatches when starved), and the microcoded EBOX that does "most of
//! the actual work associated with fetching operands and executing
//! instructions" (§2.1).
//!
//! Every EBOX cycle executes a microinstruction at a
//! [`vax_ucode::MicroAddr`]; the attached [`upc_monitor::CycleSink`]
//! counts issues and stalls per address, which is the paper's entire
//! measurement interface. Architectural semantics (registers, memory,
//! condition codes) are executed for real — the workloads are genuine
//! VAX machine code.
//!
//! # Structure
//!
//! * [`Cpu::step`] runs one instruction: interrupt check, decode dispatch,
//!   specifier microroutines, branch-displacement processing, execute
//!   microroutine, with TB-miss microtraps wherever translation fails.
//! * Stall generation: read stalls from cache misses, write stalls from
//!   the write buffer, IB stalls from decode starvation — all delegated
//!   to `vax-mem` timing and charged to the stalled micro-address.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cpu;
pub mod effect;
mod exec;
mod fault;
mod ffloat;
pub mod harness;
mod ib;
mod interrupt;
mod ipr;
mod operand;
mod predecode;
mod psl;
mod regs;
mod specifier;

pub use config::CpuConfig;
pub use cpu::scb;
pub use cpu::{BlockStats, Cpu, RunOutcome, StepOutcome};
pub use fault::{CpuError, Fault};
pub use interrupt::Interrupt;
pub use ipr::IprReg;
pub use predecode::PredecodeStats;
pub use psl::{Mode, Psl};
pub use regs::RegFile;
