//! The CPU: clock owner, microcycle engine, and instruction stepper.

use crate::config::CpuConfig;
use crate::effect::claimed_resume_safe as resume_safe;
use crate::exec;
use crate::fault::{CpuError, Fault};
use crate::ib::InstructionBuffer;
use crate::interrupt::{Interrupt, InterruptLines};
use crate::predecode::{PdOp, PredecodeCache, PredecodedInst};
use crate::psl::{Mode, Psl};
use crate::regs::RegFile;
use crate::specifier;
use upc_monitor::events::{MemStream, StallCause};
use upc_monitor::{CycleSink, MachineEvent};
use vax_arch::{DataType, Opcode};
use vax_fault::FaultClass;
use vax_mem::{MemorySubsystem, Stream, Width};
use vax_ucode::{ControlStore, MicroAddr, StallPoint};

/// SCB vector offsets used by this model (byte offsets into the system
/// control block, which lives at the physical address in `SCBB`).
pub mod scb {
    /// Machine check (injected hardware fault survived by microcode).
    pub const MACHINE_CHECK: u16 = 0x04;
    /// Reserved/unimplemented instruction.
    pub const RESERVED_INSTRUCTION: u16 = 0x10;
    /// Access-control (length) violation.
    pub const ACCESS_VIOLATION: u16 = 0x20;
    /// Translation not valid (page fault).
    pub const TRANSLATION_NOT_VALID: u16 = 0x24;
    /// `CHMK` change-mode-to-kernel dispatch.
    pub const CHMK: u16 = 0x40;
    /// `CHME`.
    pub const CHME: u16 = 0x44;
    /// `CHMS`.
    pub const CHMS: u16 = 0x48;
    /// `CHMU`.
    pub const CHMU: u16 = 0x4C;
    /// Software interrupt level `n` vectors at `0x80 + 4n`.
    pub const SOFTWARE_BASE: u16 = 0x80;
}

/// What one [`Cpu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction was executed.
    Instruction(Opcode),
    /// An interrupt was serviced (no instruction executed).
    Interrupt,
    /// An exception was delivered to the OS mid-instruction.
    Exception(Fault),
    /// An injected fault was taken through machine-check microcode (no
    /// instruction executed).
    MachineCheck(FaultClass),
}

/// Summary of a [`Cpu::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instructions retired during the run.
    pub instructions: u64,
    /// Cycles elapsed during the run.
    pub cycles: u64,
}

/// Host-side continuation-loop statistics (diagnostics: no simulated
/// meaning). The name is the block tier's, which the continuation loop
/// outlived; external tools read `replayed` under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Instructions retired inside the continuation loop.
    pub replayed: u64,
}

/// The VAX-11/780 processor model.
pub struct Cpu {
    pub(crate) regs: RegFile,
    pub(crate) psl: Psl,
    pub(crate) mem: MemorySubsystem,
    pub(crate) cs: ControlStore,
    pub(crate) ib: InstructionBuffer,
    pub(crate) now: u64,
    pub(crate) config: CpuConfig,
    pub(crate) lines: InterruptLines,
    /// Software interrupt summary register (bit n = level n pending).
    pub(crate) sisr: u16,
    /// Process control block base (physical).
    pub(crate) pcbb: u32,
    /// System control block base (physical).
    pub(crate) scbb: u32,
    pub(crate) insn_count: u64,
    /// Host-side predecode cache (empty when `config.fast_paths` is off).
    predecode: PredecodeCache,
    /// Host-side continuation-loop counters.
    block_stats: BlockStats,
    /// Earliest cycle at which an external event source (machine timer,
    /// run-time event queue, DMA engine) can fire. Maintained by the
    /// machine's event pump; `u64::MAX` when no pump drives this CPU.
    /// The continuation loop stops before crossing it, so the cycles it
    /// runs without re-pumping are provably event-free.
    event_horizon: u64,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#010x}", self.regs.pc()))
            .field("psl", &self.psl)
            .field("now", &self.now)
            .field("instructions", &self.insn_count)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// A CPU over `mem`, starting in kernel mode at `pc`.
    pub fn new(mem: MemorySubsystem, config: CpuConfig, pc: u32) -> Cpu {
        let mut regs = RegFile::new();
        regs.set_pc(pc);
        let mut mem = mem;
        mem.set_host_shortcuts(config.fast_paths);
        Cpu {
            regs,
            psl: Psl::kernel_boot(),
            mem,
            cs: ControlStore::build(),
            ib: InstructionBuffer::new(pc, config.fast_paths),
            now: 0,
            config,
            lines: InterruptLines::new(),
            sisr: 0,
            pcbb: 0,
            scbb: 0,
            insn_count: 0,
            predecode: PredecodeCache::new(config.fast_paths),
            block_stats: BlockStats::default(),
            event_horizon: u64::MAX,
        }
    }

    // ----- accessors -------------------------------------------------------

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.insn_count
    }

    /// The control store listing (shared with the analysis).
    pub fn control_store(&self) -> &ControlStore {
        &self.cs
    }

    /// Predecode-cache hit/miss/insert counts (host-side diagnostics;
    /// all zero in the naive loop).
    pub fn predecode_stats(&self) -> crate::predecode::PredecodeStats {
        self.predecode.stats()
    }

    /// Continuation-loop counts (host-side diagnostics; zero in the
    /// naive loop, and while a fault hook is installed).
    pub fn block_stats(&self) -> BlockStats {
        self.block_stats
    }

    /// Declare the earliest cycle at which an external event source can
    /// fire. Called by the machine's event pump each time it runs; the
    /// continuation loop stops before `now` reaches this horizon, so
    /// skipping the pump between its instructions is a provable no-op.
    pub fn set_event_horizon(&mut self, horizon: u64) {
        self.event_horizon = horizon;
    }

    /// The memory subsystem.
    pub fn mem(&self) -> &MemorySubsystem {
        &self.mem
    }

    /// Mutable memory subsystem (machine setup).
    pub fn mem_mut(&mut self) -> &mut MemorySubsystem {
        &mut self.mem
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable register file (machine setup).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The PSL.
    pub fn psl(&self) -> &Psl {
        &self.psl
    }

    /// Mutable PSL (machine setup).
    pub fn psl_mut(&mut self) -> &mut Psl {
        &mut self.psl
    }

    /// Set the SCB base (physical). Normally done by kernel boot code via
    /// `MTPR`, exposed for machine setup.
    pub fn set_scbb(&mut self, pa: u32) {
        self.scbb = pa;
    }

    /// Set the PCB base (physical); see [`Cpu::set_scbb`].
    pub fn set_pcbb(&mut self, pa: u32) {
        self.pcbb = pa;
    }

    /// Point the SCB vector at byte `offset` (see [`scb`]) at the handler
    /// `va`. Normally kernel boot code writes the SCB directly; exposed
    /// for machine setup (e.g. installing a `CHMK` service routine).
    pub fn set_scb_vector(&mut self, offset: u16, handler_va: u32) {
        let pa = self.scbb + u32::from(offset);
        self.mem.phys_mut().write_u32(pa, handler_va);
    }

    /// The current PC.
    pub fn pc(&self) -> u32 {
        self.regs.pc()
    }

    /// Redirect execution (machine setup; flushes the IB).
    pub fn jump(&mut self, pc: u32) {
        self.regs.set_pc(pc);
        self.ib.flush(pc);
    }

    /// Post a hardware interrupt request.
    pub fn post_interrupt(&mut self, int: Interrupt) {
        self.lines.post(int);
    }

    /// Pending software-interrupt summary.
    pub fn sisr(&self) -> u16 {
        self.sisr
    }

    /// Is an I-stream TB miss flagged but not yet serviced? The hardware
    /// counters record the miss when the prefetcher hits it; the trace
    /// records it when microcode services (or a flush discards) it, so a
    /// reconciliation at an arbitrary stop point must subtract this
    /// in-flight miss.
    pub fn pending_ib_tb_miss(&self) -> bool {
        self.ib.tb_miss().is_some()
    }

    // ----- the microcycle engine -------------------------------------------

    /// Issue one compute microinstruction at `addr`.
    #[inline]
    pub(crate) fn micro_compute<S: CycleSink>(&mut self, addr: MicroAddr, sink: &mut S) {
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, true);
        note_ib_fetch(fetch, sink);
        self.now += 1;
    }

    /// Issue `n` consecutive compute microinstructions at `addr` (the
    /// body loops of the service microroutines). When the sink's
    /// monomorphized type permits coalescing ([`CycleSink::COALESCE_OK`])
    /// and the configuration enables the sink fast path, the issues are
    /// recorded with one batched call and prefetcher ticks that provably
    /// do nothing are skipped in bulk; the simulated machine (counters,
    /// events, clock) is bit-identical either way.
    #[inline]
    pub(crate) fn micro_compute_run<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        n: u32,
        sink: &mut S,
    ) {
        if !S::COALESCE_OK || !self.config.fast_paths {
            for _ in 0..n {
                self.micro_compute(addr, sink);
            }
            return;
        }
        if n == 0 {
            return;
        }
        sink.record_issue_run(addr, n);
        if self.mem.has_fault_hook() {
            // A fault hook must observe every µPC in order: no skipping.
            for _ in 0..n {
                self.mem.observe_upc(addr.value());
                let fetch = self.ib.tick(&mut self.mem, self.now, true);
                note_ib_fetch(fetch, sink);
                self.now += 1;
            }
            return;
        }
        // No hook: observe_upc is a no-op, so only the prefetcher is
        // left — run it with no-op ticks skipped in bulk.
        self.run_ticks_bulk(n, sink);
    }

    /// Advance the clock by `n` cycles, ticking the prefetcher exactly
    /// where the per-cycle loop would have ticked it to any effect.
    /// Nothing consumes IB bytes inside the run, so its evolution is
    /// fully predictable: a tick mutates nothing while the in-flight
    /// fill is not ready (jump straight to `ready_at`), and once there
    /// is no fill and the IB is full (or waiting on a TB miss) every
    /// remaining tick is a no-op. The ticks that do run — and their
    /// fetch outcomes — are exactly the mutating ones the per-cycle
    /// loop would have run, at the same `now` values.
    #[inline]
    fn run_ticks_bulk<S: CycleSink>(&mut self, n: u32, sink: &mut S) {
        let end = self.now + u64::from(n);
        while self.now < end {
            if let Some(ready) = self.ib.pending_ready_at() {
                if ready > self.now {
                    self.now = ready.min(end);
                    continue;
                }
            } else if self.ib.quiescent() {
                self.now = end;
                break;
            }
            let fetch = self.ib.tick(&mut self.mem, self.now, true);
            note_ib_fetch(fetch, sink);
            self.now += 1;
        }
    }

    /// Burn `cycles` stall cycles charged to `addr`, tagged with `cause`
    /// for the trace (the histogram only keys stalls by µPC).
    pub(crate) fn stall<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        cycles: u32,
        cause: StallCause,
        sink: &mut S,
    ) {
        if cycles == 0 {
            return;
        }
        sink.record_stall(addr, cycles);
        sink.trace_event(MachineEvent::Stall { cause, cycles });
        // Stall cycles don't observe a µPC, so the per-cycle work is the
        // prefetcher alone; skip its no-op ticks in bulk when the sink
        // permits.
        if S::COALESCE_OK && self.config.fast_paths {
            self.run_ticks_bulk(cycles, sink);
            return;
        }
        for _ in 0..cycles {
            let fetch = self.ib.tick(&mut self.mem, self.now, true);
            note_ib_fetch(fetch, sink);
            self.now += 1;
        }
    }

    /// Translate a data reference, running the TB-miss microtrap as needed.
    pub(crate) fn translate_data<S: CycleSink>(
        &mut self,
        va: u32,
        sink: &mut S,
    ) -> Result<u32, Fault> {
        loop {
            match self.mem.translate(va, Stream::Data) {
                Ok(pa) => return Ok(pa),
                Err(_) => self.tb_microtrap(va, MemStream::Data, sink)?,
            }
        }
    }

    /// The TB-miss service microroutine (paper §4.2): microtrap abort,
    /// routine entry, page-table walk with the PTE read through the cache,
    /// TB insert, restart.
    pub(crate) fn tb_microtrap<S: CycleSink>(
        &mut self,
        va: u32,
        stream: MemStream,
        sink: &mut S,
    ) -> Result<(), Fault> {
        self.micro_compute(self.cs.abort(), sink);
        self.micro_compute(self.cs.tb_miss_entry(), sink);
        self.micro_compute_run(
            self.cs.tb_miss_body(),
            self.config.tb_miss_head_cycles,
            sink,
        );
        let fill = self.mem.tb_fill(va, self.now);
        // The fill's PTE reads went through the cache as D-stream
        // references (even for an I-stream miss, and even when the walk
        // ends in a fault) — attribute them before acting on the result.
        let (sys_read, pte_read) = self.mem.last_fill_reads();
        for outcome in [sys_read, pte_read].into_iter().flatten() {
            note_data_read(outcome.miss, sink);
        }
        sink.trace_event(MachineEvent::TbMiss {
            stream,
            double: sys_read.is_some(),
        });
        let fill = fill.map_err(Fault::from)?;
        if let Some(sys) = fill.system_fill {
            self.micro_compute_run(
                self.cs.tb_miss_body(),
                self.config.tb_miss_double_cycles,
                sink,
            );
            let addr = self.cs.tb_miss_sys_read();
            sink.record_issue(addr);
            self.mem.observe_upc(addr.value());
            let fetch = self.ib.tick(&mut self.mem, self.now, false);
            note_ib_fetch(fetch, sink);
            self.now += 1;
            self.stall(addr, sys.stall, StallCause::Read, sink);
        }
        let addr = self.cs.tb_miss_pte_read();
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, false);
        note_ib_fetch(fetch, sink);
        self.now += 1;
        self.stall(addr, fill.pte_read.stall, StallCause::Read, sink);
        self.micro_compute_run(
            self.cs.tb_miss_insert(),
            self.config.tb_miss_tail_cycles,
            sink,
        );
        Ok(())
    }

    /// Issue a read microinstruction at `addr` for an *aligned* reference.
    fn micro_read_aligned<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        width: Width,
        sink: &mut S,
    ) -> Result<u32, Fault> {
        let pa = self.translate_data(va, sink)?;
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, false);
        note_ib_fetch(fetch, sink);
        let outcome = self.mem.read(pa, width, self.now);
        note_data_read(outcome.miss, sink);
        self.now += 1;
        self.stall(addr, outcome.stall, StallCause::Read, sink);
        Ok(outcome.value)
    }

    /// Issue a write microinstruction at `addr` for an *aligned* reference.
    fn micro_write_aligned<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        width: Width,
        value: u32,
        sink: &mut S,
    ) -> Result<(), Fault> {
        let pa = self.translate_data(va, sink)?;
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, false);
        note_ib_fetch(fetch, sink);
        let outcome = self.mem.write(pa, width, value, self.now);
        note_data_write(self.mem.write_buffer_occupancy(), sink);
        self.now += 1;
        self.stall(addr, outcome.stall, StallCause::Write, sink);
        Ok(())
    }

    /// Does a reference of `width` at `va` cross a longword boundary
    /// (two physical references on the 32-bit data path, §3.3.1)?
    #[inline]
    fn crosses_longword(va: u32, width: Width) -> bool {
        (va & 3) + width.bytes() > 4
    }

    /// D-stream read of up to a longword, splitting unaligned references
    /// through the alignment microcode (Mem Mgmt row).
    pub(crate) fn read_data<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        width: Width,
        sink: &mut S,
    ) -> Result<u32, Fault> {
        if !Self::crosses_longword(va, width) {
            // Within one longword: a single reference, possibly at an odd
            // byte offset (handled by the rotator, no extra cost).
            let aligned = va & !3;
            let lw = self.micro_read_aligned(addr, aligned, Width::Long, sink)?;
            let shift = (va & 3) * 8;
            let mask = width_mask(width);
            return Ok((lw >> shift) & mask);
        }
        self.mem.counters_mut().unaligned_refs += 1;
        let lo_lw = self.micro_read_aligned(addr, va & !3, Width::Long, sink)?;
        let hi_lw =
            self.micro_read_aligned(self.cs.memmgmt_read(), (va & !3) + 4, Width::Long, sink)?;
        self.micro_compute(self.cs.memmgmt_compute(), sink);
        let shift = (va & 3) * 8;
        let combined = (u64::from(hi_lw) << 32) | u64::from(lo_lw);
        Ok(((combined >> shift) as u32) & width_mask(width))
    }

    /// D-stream write of up to a longword, splitting unaligned references.
    pub(crate) fn write_data<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        width: Width,
        value: u32,
        sink: &mut S,
    ) -> Result<(), Fault> {
        if !Self::crosses_longword(va, width) {
            return self.micro_write_aligned(addr, va, width, value, sink);
        }
        self.mem.counters_mut().unaligned_refs += 1;
        let lo_bytes = 4 - (va & 3);
        self.micro_compute(self.cs.memmgmt_compute(), sink);
        // Low part at the odd offset (aligned at byte granularity).
        for i in 0..width.bytes() {
            // Byte-wise split keeps each physical write aligned; charge the
            // first byte at the caller's address, the rest to alignment
            // microcode.
            let a = if i == 0 {
                addr
            } else {
                self.cs.memmgmt_write()
            };
            if i == lo_bytes {
                self.micro_compute(self.cs.memmgmt_compute(), sink);
            }
            self.micro_write_aligned(a, va + i, Width::Byte, (value >> (8 * i)) & 0xFF, sink)?;
        }
        Ok(())
    }

    /// Quadword read: two longword references.
    pub(crate) fn read_data_u64<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        sink: &mut S,
    ) -> Result<u64, Fault> {
        let lo = self.read_data(addr, va, Width::Long, sink)?;
        let hi = self.read_data(addr, va + 4, Width::Long, sink)?;
        Ok(u64::from(lo) | (u64::from(hi) << 32))
    }

    /// Quadword write: two longword references.
    pub(crate) fn write_data_u64<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        va: u32,
        value: u64,
        sink: &mut S,
    ) -> Result<(), Fault> {
        self.write_data(addr, va, Width::Long, value as u32, sink)?;
        self.write_data(addr, va + 4, Width::Long, (value >> 32) as u32, sink)
    }

    /// Physical read (SCB vectors, PCB): no translation.
    pub(crate) fn micro_read_phys<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        pa: u32,
        sink: &mut S,
    ) -> u32 {
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, false);
        note_ib_fetch(fetch, sink);
        let outcome = self.mem.read(pa & !3, Width::Long, self.now);
        note_data_read(outcome.miss, sink);
        self.now += 1;
        self.stall(addr, outcome.stall, StallCause::Read, sink);
        outcome.value
    }

    /// Physical write (PCB save): no translation.
    pub(crate) fn micro_write_phys<S: CycleSink>(
        &mut self,
        addr: MicroAddr,
        pa: u32,
        value: u32,
        sink: &mut S,
    ) {
        sink.record_issue(addr);
        self.mem.observe_upc(addr.value());
        let fetch = self.ib.tick(&mut self.mem, self.now, false);
        note_ib_fetch(fetch, sink);
        let outcome = self.mem.write(pa & !3, Width::Long, value, self.now);
        note_data_write(self.mem.write_buffer_occupancy(), sink);
        self.now += 1;
        self.stall(addr, outcome.stall, StallCause::Write, sink);
    }

    // ----- IB consumption ---------------------------------------------------

    /// Take one instruction byte, stalling at `point` while the IB is
    /// starved and servicing I-stream TB misses when flagged.
    pub(crate) fn ib_take_byte<S: CycleSink>(
        &mut self,
        point: StallPoint,
        sink: &mut S,
    ) -> Result<u8, Fault> {
        loop {
            if let Some(b) = self.ib.take_byte() {
                self.regs.set_pc(self.regs.pc().wrapping_add(1));
                return Ok(b);
            }
            if let Some(va) = self.ib.tb_miss() {
                self.tb_microtrap(va, MemStream::IFetch, sink)?;
                self.ib.clear_tb_miss();
                continue;
            }
            // Starved: execute the IB-stall dispatch microinstruction.
            // These are issued cycles, not `record_stall` stalls, so the
            // trace carries the cause explicitly.
            sink.trace_event(MachineEvent::Stall {
                cause: StallCause::Ib(point),
                cycles: 1,
            });
            self.micro_compute(self.cs.ib_stall(point), sink);
        }
    }

    /// Skip `n` instruction bytes whose values are already known from
    /// the predecode cache. Cycle-for-cycle equivalent to `n` calls of
    /// [`Cpu::ib_take_byte`]: available bytes are discarded in bulk at
    /// zero simulated cost, and starvation stalls / I-stream TB misses
    /// are handled at the identical points with the identical cycles.
    pub(crate) fn ib_skip_bytes<S: CycleSink>(
        &mut self,
        n: usize,
        point: StallPoint,
        sink: &mut S,
    ) -> Result<(), Fault> {
        let mut left = n;
        loop {
            let k = self.ib.skip_bytes(left);
            if k > 0 {
                self.regs.set_pc(self.regs.pc().wrapping_add(k as u32));
                left -= k;
            }
            if left == 0 {
                return Ok(());
            }
            if let Some(va) = self.ib.tb_miss() {
                self.tb_microtrap(va, MemStream::IFetch, sink)?;
                self.ib.clear_tb_miss();
                continue;
            }
            sink.trace_event(MachineEvent::Stall {
                cause: StallCause::Ib(point),
                cycles: 1,
            });
            self.micro_compute(self.cs.ib_stall(point), sink);
        }
    }

    /// Flush the IB for an execution redirect (taken branch, interrupt,
    /// exception). A flagged-but-unserviced I-stream TB miss is reported
    /// to the sink before it is discarded: the hardware monitor counted
    /// it when the prefetcher hit it, so the trace must see it too or the
    /// two instruments drift apart.
    pub(crate) fn flush_ib<S: CycleSink>(&mut self, pc: u32, sink: &mut S) {
        if self.ib.tb_miss().is_some() {
            sink.trace_event(MachineEvent::TbMiss {
                stream: MemStream::IFetch,
                double: false,
            });
        }
        self.ib.flush(pc);
    }

    /// Take a little-endian word from the I-stream.
    pub(crate) fn ib_take_u16<S: CycleSink>(
        &mut self,
        point: StallPoint,
        sink: &mut S,
    ) -> Result<u16, Fault> {
        let lo = self.ib_take_byte(point, sink)?;
        let hi = self.ib_take_byte(point, sink)?;
        Ok(u16::from_le_bytes([lo, hi]))
    }

    /// Take a little-endian longword from the I-stream.
    pub(crate) fn ib_take_u32<S: CycleSink>(
        &mut self,
        point: StallPoint,
        sink: &mut S,
    ) -> Result<u32, Fault> {
        let lo = self.ib_take_u16(point, sink)?;
        let hi = self.ib_take_u16(point, sink)?;
        Ok(u32::from(lo) | (u32::from(hi) << 16))
    }

    // ----- stepping ---------------------------------------------------------

    /// Execute one instruction (or service one interrupt).
    ///
    /// # Errors
    ///
    /// [`CpuError::Halted`] on a kernel-mode `HALT`;
    /// [`CpuError::UnhandledFault`] if an exception has no SCB vector.
    pub fn step<S: CycleSink>(&mut self, sink: &mut S) -> Result<StepOutcome, CpuError> {
        self.step_budgeted(1, sink)
    }

    /// Execute up to `budget` instructions (or service one interrupt).
    ///
    /// Like [`Cpu::step`], but the continuation loop may retire several
    /// instructions in one call — never more than `budget`, so callers
    /// driving toward an instruction target pass their remaining count
    /// and never overshoot. A budget of 1 is exactly [`Cpu::step`].
    /// [`StepOutcome::Instruction`] carries the *last* retired opcode.
    ///
    /// The continuation loop runs only with the fast paths on and no
    /// fault hook installed (an armed hook polls every instruction
    /// boundary and observes every µPC); otherwise every call executes
    /// exactly one instruction. It keeps executing until the budget is
    /// spent, the external-event horizon is reached, or an instruction
    /// retires that could make an interrupt deliverable
    /// ([`crate::effect::claimed_resume_safe`]). Bit-identity argument
    /// for the per-step work it skips: the fault poll is a no-op because
    /// no hook is armed and none can be installed from inside the run;
    /// interrupt arbitration is a no-op because the only things that
    /// change IPL/SISR/interrupt lines are external events (which cannot
    /// fire before the event horizon — and the run stops there) and the
    /// resume-unsafe instructions (the run returns right after one
    /// retires); the external-event pump is a no-op for the same horizon
    /// reason. So the run retires exactly the instructions, in exactly
    /// the states, that that many per-instruction steps would have.
    ///
    /// # Errors
    ///
    /// As [`Cpu::step`].
    pub fn step_budgeted<S: CycleSink>(
        &mut self,
        budget: u64,
        sink: &mut S,
    ) -> Result<StepOutcome, CpuError> {
        // Injected faults are accepted at instruction boundaries, ahead
        // of interrupt arbitration: a machine check outranks any IPL.
        if let Some(class) = self.mem.poll_fault(self.now) {
            self.machine_check(class, sink)?;
            return Ok(StepOutcome::MachineCheck(class));
        }
        // Interrupt arbitration happens between instructions.
        if let Some(int) = self.pending_interrupt() {
            self.service_interrupt(int, sink);
            return Ok(StepOutcome::Interrupt);
        }
        let limit = if self.config.fast_paths && !self.mem.has_fault_hook() {
            budget
        } else {
            1
        };
        let mut executed: u64 = 0;
        let outcome = loop {
            let pc = self.regs.pc();
            match self.execute_one(sink) {
                Ok(op) => {
                    self.insn_count += 1;
                    executed += 1;
                    if executed >= limit || !resume_safe(op) || self.now >= self.event_horizon {
                        break Ok(StepOutcome::Instruction(op));
                    }
                }
                Err(ExecStop::Fault(fault)) => {
                    break self
                        .deliver_exception(fault, pc, sink)
                        .map(|()| StepOutcome::Exception(fault));
                }
                Err(ExecStop::Halt) => break Err(CpuError::Halted { pc: self.regs.pc() }),
            }
        };
        if limit >= 2 {
            self.block_stats.replayed += executed;
        }
        outcome
    }

    fn execute_one<S: CycleSink>(&mut self, sink: &mut S) -> Result<Opcode, ExecStop> {
        let pc_at_start = self.regs.pc();
        // Predecode fast path: replay the cached parse of this static
        // instruction. Bit-identical to the parse path below — same bytes
        // consumed, same microinstructions issued, same evaluation code.
        if self.config.fast_paths {
            let space = self.code_space_tag(pc_at_start);
            if let Some(idx) = self
                .predecode
                .lookup(pc_at_start, space, self.mem.decode_gen())
            {
                return self.execute_predecoded(idx, pc_at_start, sink);
            }
        }
        let opbyte = self
            .ib_take_byte(StallPoint::Decode, sink)
            .map_err(ExecStop::Fault)?;
        let opcode =
            Opcode::from_byte(opbyte).ok_or(ExecStop::Fault(Fault::ReservedInstruction {
                opcode: opbyte,
            }))?;
        sink.trace_event(MachineEvent::Decode { opcode });
        // The non-overlapped decode cycle (§2.1). The 11/750-style ablation
        // folds it away for non-PC-changing instructions (§5).
        if !self.config.decode_overlap || opcode.is_pc_changing() {
            self.micro_compute(self.cs.ird1(), sink);
        }
        self.patch_abort_cycle(sink);
        // Specifier processing, recording each parse for the predecode
        // cache as we go.
        let mut rec = PredecodedInst::new(opcode);
        let mut ops = specifier::EvalOps::new();
        let mut branch_disp: Option<i32> = None;
        for (i, template) in opcode.operands().iter().enumerate() {
            if template.is_branch_displacement() {
                let (disp, bytes) = match template.data_type() {
                    DataType::Byte => (
                        self.ib_take_byte(StallPoint::BranchDisp, sink)
                            .map_err(ExecStop::Fault)? as i8 as i32,
                        1u8,
                    ),
                    DataType::Word => (
                        self.ib_take_u16(StallPoint::BranchDisp, sink)
                            .map_err(ExecStop::Fault)? as i16 as i32,
                        2u8,
                    ),
                    other => unreachable!("displacement of type {other}"),
                };
                // The displacement bytes are consumed here (IB stalls land
                // in the B-Disp row), but the target-address computation
                // cycle is spent only if the branch is taken — §5: "the
                // branch displacement need not be computed when the
                // instruction does not branch".
                rec.push(PdOp::Branch { disp, bytes });
                branch_disp = Some(disp);
            } else {
                let (op, dec) =
                    specifier::eval_specifier(self, i, *template, sink).map_err(ExecStop::Fault)?;
                rec.push(PdOp::Spec(dec));
                ops.push(op);
            }
        }
        // All operands parsed cleanly: cache the parse. (Execute-phase
        // faults don't invalidate a parse; instructions whose *parse*
        // faults never reach here and stay on this path, preserving
        // their exact fault payloads.)
        if self.config.fast_paths {
            self.insert_predecode(pc_at_start, rec);
        }
        // Execute phase.
        let specifiers = (ops.len() + usize::from(branch_disp.is_some())) as u8;
        exec::execute(self, opcode, &ops, branch_disp, sink)?;
        sink.trace_event(MachineEvent::Retire {
            opcode,
            pc: pc_at_start,
            specifiers,
        });
        Ok(opcode)
    }

    /// Replay a predecode-cache hit: consume the same I-stream bytes and
    /// issue the same microinstructions as the parse path, evaluating
    /// operands through the shared `eval_decoded` code. `idx` is the
    /// cache slot from `PredecodeCache::lookup`, read in place per
    /// operand: nothing inserts into the cache during a replay, so the
    /// slot cannot be overwritten under us.
    fn execute_predecoded<S: CycleSink>(
        &mut self,
        idx: usize,
        pc_at_start: u32,
        sink: &mut S,
    ) -> Result<Opcode, ExecStop> {
        let (opcode, nops) = self.predecode.header_at(idx);
        self.ib_skip_bytes(1, StallPoint::Decode, sink)
            .map_err(ExecStop::Fault)?; // the opcode byte
        sink.trace_event(MachineEvent::Decode { opcode });
        if !self.config.decode_overlap || opcode.is_pc_changing() {
            self.micro_compute(self.cs.ird1(), sink);
        }
        self.patch_abort_cycle(sink);
        let mut ops = specifier::EvalOps::new();
        let mut branch_disp: Option<i32> = None;
        for i in 0..usize::from(nops) {
            match self.predecode.op_at(idx, i) {
                PdOp::Branch { disp, bytes } => {
                    self.ib_skip_bytes(usize::from(bytes), StallPoint::BranchDisp, sink)
                        .map_err(ExecStop::Fault)?;
                    branch_disp = Some(disp);
                }
                PdOp::Spec(dec) => {
                    let op =
                        specifier::eval_predecoded(self, i, &dec, sink).map_err(ExecStop::Fault)?;
                    ops.push(op);
                }
            }
        }
        let specifiers = (ops.len() + usize::from(branch_disp.is_some())) as u8;
        exec::execute(self, opcode, &ops, branch_disp, sink)?;
        sink.trace_event(MachineEvent::Retire {
            opcode,
            pc: pc_at_start,
            specifiers,
        });
        Ok(opcode)
    }

    /// Cache the parse of the instruction spanning `[pc, regs.pc())`,
    /// flagging every physical code page it touches so simulated writes
    /// there invalidate the cache. If any page fails to resolve (it was
    /// just fetched, so this cannot normally happen), skip the insert —
    /// staying on the parse path is always safe.
    fn insert_predecode(&mut self, pc: u32, inst: PredecodedInst) {
        let end = self.regs.pc();
        if end <= pc {
            return; // PC wrapped mid-instruction: not worth caching.
        }
        // Flag exactly the bytes the instruction occupies, page by page
        // (the range is virtually contiguous but not physically).
        let mut va = pc;
        while va < end {
            let page_end = (va & !(vax_mem::PAGE_BYTES - 1)).wrapping_add(vax_mem::PAGE_BYTES);
            let chunk_end = if page_end == 0 {
                end
            } else {
                page_end.min(end)
            };
            match self.mem.resolve_va(va) {
                Some(pa) => self.mem.note_code_bytes(pa, chunk_end - va),
                None => return,
            }
            va = chunk_end;
        }
        let space = self.code_space_tag(pc);
        self.predecode
            .insert(pc, space, self.mem.decode_gen(), inst);
    }

    /// The predecode address-space tag for code at `pc`: system-space
    /// code (S0/S1, top VA bit set) is mapped identically for every
    /// process and shares tag 0; process-space code is tagged with the
    /// owning space's identity so entries survive context switches.
    #[inline]
    fn code_space_tag(&self, pc: u32) -> u64 {
        if pc & 0x8000_0000 != 0 {
            0
        } else {
            self.mem.space_tag()
        }
    }

    /// Microcode-patch abort cycles (§5: "one for each microcode patch")
    /// at a steady rate: on instruction counts `period, 2·period, …` —
    /// never at count 0, which would charge a spurious abort on the very
    /// first instruction of every run and skew short ablations.
    #[inline]
    fn patch_abort_cycle<S: CycleSink>(&mut self, sink: &mut S) {
        if self.config.patch_abort_period > 0
            && self.insn_count > 0
            && self
                .insn_count
                .is_multiple_of(u64::from(self.config.patch_abort_period))
        {
            self.micro_compute(self.cs.abort(), sink);
        }
    }

    fn pending_interrupt(&self) -> Option<PendingInt> {
        let hw = self.lines.max_ipl().filter(|&ipl| ipl > self.psl.ipl);
        let sw = highest_bit(self.sisr).filter(|&lvl| lvl > self.psl.ipl);
        match (hw, sw) {
            (Some(h), Some(s)) if s > h => Some(PendingInt::Software(s)),
            (Some(_), _) => Some(PendingInt::Hardware),
            (None, Some(s)) => Some(PendingInt::Software(s)),
            (None, None) => None,
        }
    }

    /// Interrupt-service microcode: save PC/PSL on the interrupt stack,
    /// fetch the SCB vector, dispatch to the kernel's ISR code.
    fn service_interrupt<S: CycleSink>(&mut self, which: PendingInt, sink: &mut S) {
        let (ipl, vector) = match which {
            PendingInt::Hardware => {
                let int = self
                    .lines
                    .acknowledge_above(self.psl.ipl)
                    .expect("pending_interrupt saw it");
                (int.ipl, int.vector)
            }
            PendingInt::Software(level) => {
                self.sisr &= !(1 << level);
                (level, scb::SOFTWARE_BASE + 4 * u16::from(level))
            }
        };
        sink.trace_event(MachineEvent::InterruptEntry { ipl });
        let (u_entry, u_body, u_read, u_write) = (
            self.cs.int_entry(),
            self.cs.int_body(),
            self.cs.int_read(),
            self.cs.int_write(),
        );
        self.micro_compute(u_entry, sink);
        let body = self.config.int_service_body_cycles;
        self.micro_compute_run(u_body, body / 2, sink);
        // Hardware interrupts are serviced on the interrupt stack;
        // software interrupts (e.g. VMS rescheduling at level 3) on the
        // current process's kernel stack, so the PC/PSL frame is part of
        // the per-process context that SVPCTX/LDPCTX hand over.
        let on_interrupt_stack = matches!(which, PendingInt::Hardware);
        let old_psl = self.psl;
        let mut new_psl = self.psl;
        new_psl.mode = Mode::Kernel;
        new_psl.interrupt_stack = on_interrupt_stack;
        new_psl.ipl = ipl;
        self.regs.switch_stack(&old_psl, &new_psl);
        self.psl = new_psl;
        let sp = self.regs.sp().wrapping_sub(8);
        self.regs.set_sp(sp);
        // Pushes go through translation; the interrupt stack is wired
        // resident in the workloads, so faults cannot occur here. The PSL
        // slot address must wrap like the SP computation itself did: with
        // SP < 8 the subtraction wraps and `sp + 4` would overflow.
        let pc = self.regs.pc();
        let psl_word = old_psl.to_u32();
        let _ = self.write_data(u_write, sp.wrapping_add(4), Width::Long, psl_word, sink);
        self.micro_compute(u_body, sink);
        self.micro_compute(u_body, sink);
        let _ = self.write_data(u_write, sp, Width::Long, pc, sink);
        self.micro_compute_run(u_body, body - body / 2, sink);
        let handler = self.micro_read_phys(u_read, self.scbb + u32::from(vector), sink);
        self.regs.set_pc(handler);
        self.flush_ib(handler, sink);
    }

    /// Exception-service microcode; delivers `fault` through the SCB.
    fn deliver_exception<S: CycleSink>(
        &mut self,
        fault: Fault,
        pc_at_fault: u32,
        sink: &mut S,
    ) -> Result<(), CpuError> {
        let vector = match fault {
            Fault::PageFault { .. } => scb::TRANSLATION_NOT_VALID,
            Fault::LengthViolation { .. } => scb::ACCESS_VIOLATION,
            Fault::ReservedInstruction { .. } | Fault::Privileged => scb::RESERVED_INSTRUCTION,
            Fault::MachineCheck => scb::MACHINE_CHECK,
        };
        sink.trace_event(MachineEvent::ExceptionEntry);
        let (u_abort, u_entry, u_body, u_read, u_write) = (
            self.cs.abort(),
            self.cs.exc_entry(),
            self.cs.exc_body(),
            self.cs.exc_read(),
            self.cs.exc_write(),
        );
        self.micro_compute(u_abort, sink);
        self.micro_compute(u_entry, sink);
        self.micro_compute_run(u_body, self.config.exc_service_body_cycles, sink);
        let old_psl = self.psl;
        let mut new_psl = self.psl;
        new_psl.mode = Mode::Kernel;
        self.regs.switch_stack(&old_psl, &new_psl);
        self.psl = new_psl;
        let sp = self.regs.sp().wrapping_sub(8);
        self.regs.set_sp(sp);
        let _ = self.write_data(
            u_write,
            sp.wrapping_add(4),
            Width::Long,
            old_psl.to_u32(),
            sink,
        );
        let _ = self.write_data(u_write, sp, Width::Long, pc_at_fault, sink);
        let handler = self.micro_read_phys(u_read, self.scbb + u32::from(vector), sink);
        if handler == 0 {
            return Err(CpuError::UnhandledFault {
                fault,
                pc: pc_at_fault,
            });
        }
        self.regs.set_pc(handler);
        self.flush_ib(handler, sink);
        Ok(())
    }

    /// Machine-check microcode for an injected fault. The recovery
    /// sequence (scrub/retry, per fault class) runs first and is
    /// attributed to the fault-handling control-store region; the
    /// architectural perturbation is then applied to the memory
    /// subsystem, and the event is reported to the kernel's
    /// machine-check handler through the normal exception microcode.
    /// All recovery µwords are Compute ops, so the stall-cause
    /// partition of the histogram stays exact under injection.
    fn machine_check<S: CycleSink>(
        &mut self,
        class: FaultClass,
        sink: &mut S,
    ) -> Result<(), CpuError> {
        sink.trace_event(MachineEvent::MachineCheck { class });
        let (u_abort, u_entry, u_body) =
            (self.cs.abort(), self.cs.fault_entry(), self.cs.fault_body());
        self.micro_compute(u_abort, sink);
        self.micro_compute(u_entry, sink);
        self.micro_compute_run(u_body, class.recovery_body_cycles(), sink);
        // Perturb the memory subsystem the way the real error would
        // have (flushed cache/TB, busy SBI, ...), count it, and log the
        // entry cycle back to the hook.
        self.mem.apply_fault(class, self.now);
        let pc = self.regs.pc();
        self.deliver_exception(Fault::MachineCheck, pc, sink)
    }

    /// Run up to `max_instructions` instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`] from [`Cpu::step`].
    pub fn run<S: CycleSink>(
        &mut self,
        max_instructions: u64,
        sink: &mut S,
    ) -> Result<RunOutcome, CpuError> {
        let start_insns = self.insn_count;
        let start_cycles = self.now;
        while self.insn_count - start_insns < max_instructions {
            let remaining = max_instructions - (self.insn_count - start_insns);
            self.step_budgeted(remaining, sink)?;
        }
        Ok(RunOutcome {
            instructions: self.insn_count - start_insns,
            cycles: self.now - start_cycles,
        })
    }
}

enum PendingInt {
    Hardware,
    Software(u8),
}

/// Why instruction execution stopped abnormally.
pub(crate) enum ExecStop {
    /// An architectural fault to deliver.
    Fault(Fault),
    /// Kernel-mode HALT.
    Halt,
}

impl From<Fault> for ExecStop {
    fn from(f: Fault) -> ExecStop {
        ExecStop::Fault(f)
    }
}

/// Report an IB prefetch issued this cycle (if any) to the sink.
#[inline]
fn note_ib_fetch<S: CycleSink>(fetch: Option<bool>, sink: &mut S) {
    if let Some(miss) = fetch {
        sink.trace_event(MachineEvent::CacheAccess {
            stream: MemStream::IFetch,
            hit: !miss,
        });
        if miss {
            sink.trace_event(MachineEvent::Sbi { read: true });
        }
    }
}

/// Report a D-stream cache read (and its SBI fill, on a miss).
#[inline]
fn note_data_read<S: CycleSink>(miss: bool, sink: &mut S) {
    sink.trace_event(MachineEvent::CacheAccess {
        stream: MemStream::Data,
        hit: !miss,
    });
    if miss {
        sink.trace_event(MachineEvent::Sbi { read: true });
    }
}

/// Report a write entering the write buffer (every write also goes out
/// on the SBI — the cache is write-through).
#[inline]
fn note_data_write<S: CycleSink>(occupancy: usize, sink: &mut S) {
    sink.trace_event(MachineEvent::WriteBuffer {
        occupancy: occupancy.min(usize::from(u8::MAX)) as u8,
    });
    sink.trace_event(MachineEvent::Sbi { read: false });
}

#[inline]
fn width_mask(width: Width) -> u32 {
    match width {
        Width::Byte => 0xFF,
        Width::Word => 0xFFFF,
        Width::Long => 0xFFFF_FFFF,
    }
}

/// Highest set bit index of a 16-bit mask (software interrupt level).
fn highest_bit(mask: u16) -> Option<u8> {
    if mask == 0 {
        None
    } else {
        Some(15 - mask.leading_zeros() as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_finds_top_level() {
        assert_eq!(highest_bit(0), None);
        assert_eq!(highest_bit(0b0000_0010), Some(1));
        assert_eq!(highest_bit(0b1000_0010), Some(7));
    }

    #[test]
    fn crosses_longword_detection() {
        assert!(!Cpu::crosses_longword(0x1000, Width::Long));
        assert!(Cpu::crosses_longword(0x1002, Width::Long));
        assert!(!Cpu::crosses_longword(0x1002, Width::Word));
        assert!(Cpu::crosses_longword(0x1003, Width::Word));
        assert!(!Cpu::crosses_longword(0x1003, Width::Byte));
    }
}
