//! The composed memory subsystem: TB → cache → write buffer/SBI → memory.
//!
//! All methods take the current cycle and return stall/completion
//! information; the CPU owns the clock (see the crate docs).

use crate::paging::{self, PteLocation};
use crate::{
    AddressSpace, Cache, HwCounters, MemConfig, PhysMem, Pte, Sbi, SystemMap, Tb, TbHalf,
    PAGE_BYTES,
};
use vax_fault::{FaultClass, FaultEngine, FiredFault};

/// Which reference stream a memory operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Instruction fetch (the IB).
    IFetch,
    /// Data reference (the EBOX).
    Data,
}

/// Width of a data reference. Quadwords are performed by the CPU as two
/// longword references, as on the real 32-bit data path (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// One byte.
    Byte,
    /// Two bytes.
    Word,
    /// Four bytes.
    Long,
}

impl Width {
    /// Size in bytes.
    #[inline]
    pub const fn bytes(self) -> u32 {
        match self {
            Width::Byte => 1,
            Width::Word => 2,
            Width::Long => 4,
        }
    }
}

/// Outcome of an EBOX data read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The data (zero-extended).
    pub value: u32,
    /// Read-stall cycles the EBOX incurs (0 on a cache hit).
    pub stall: u32,
    /// Did the reference miss in the cache?
    pub miss: bool,
}

/// Outcome of an EBOX data write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Write-stall cycles (0 if the write buffer was free).
    pub stall: u32,
}

/// Outcome of an IB longword fetch. The EBOX is not stalled; the IB
/// accepts the data when `ready_at` arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IFetchOutcome {
    /// The aligned longword containing the requested byte.
    pub data: u32,
    /// Cycle at which the data is available to the IB.
    pub ready_at: u64,
    /// Did the reference miss in the cache?
    pub miss: bool,
}

/// Result of a TB-fill microroutine's memory work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbFill {
    /// If the process PTE's own page-table page missed in the system TB,
    /// the stall of the extra system PTE read (the "double miss").
    pub system_fill: Option<ReadOutcome>,
    /// The PTE read itself (through the cache, as on the 11/780 — this is
    /// where the paper's 3.5 read-stall cycles per miss come from).
    pub pte_read: ReadOutcome,
}

/// A memory-management fault delivered to the operating system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Reference beyond the mapped length of its region.
    LengthViolation {
        /// The faulting virtual address.
        va: u32,
    },
    /// Valid-bit clear in the PTE (page not resident).
    PageFault {
        /// The faulting virtual address.
        va: u32,
    },
}

/// TB miss: the CPU must run the miss-service microroutine and call
/// [`MemorySubsystem::tb_fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbMiss {
    /// The missing virtual address.
    pub va: u32,
    /// Which half of the TB missed.
    pub half: TbHalf,
}

/// The full memory subsystem of Figure 1.
#[derive(Debug)]
pub struct MemorySubsystem {
    config: MemConfig,
    phys: PhysMem,
    cache: Cache,
    tb: Tb,
    sbi: Sbi,
    /// Write buffer: completion time of each occupied entry (bounded by
    /// `config.write_buffer_entries`).
    wbuf: Vec<u64>,
    system: SystemMap,
    space: AddressSpace,
    counters: HwCounters,
    /// Cache-read outcomes of the most recent [`MemorySubsystem::tb_fill`]
    /// call `(system PTE read, process/system PTE read)`, recorded even
    /// when the fill ends in a fault. The tracer needs them: a faulting
    /// fill still made cache references that the hardware counters saw.
    last_fill_reads: (Option<ReadOutcome>, Option<ReadOutcome>),
    /// Fault-injection engine (None on the happy path; installing one
    /// is how `vax780 inject` perturbs the machine).
    fault_hook: Option<Box<FaultEngine>>,
    /// One-entry translation shortcut (same argument as the IB
    /// prefetcher's): the page and frame base of the last successful
    /// [`MemorySubsystem::translate`], valid while the TB generation is
    /// unchanged. A shortcut hit counts as a TB hit — it *is* one.
    t_page: u32,
    t_frame: u32,
    t_gen: u64,
    /// Use the one-entry translation shortcut. `false` scans the TB on
    /// every translate — the straight-line reference the equivalence
    /// suite compares against (see `CpuConfig::fast_paths` in
    /// `vax_cpu`).
    shortcuts: bool,
}

impl MemorySubsystem {
    /// A subsystem with the given configuration and an empty machine image.
    pub fn new(config: MemConfig) -> MemorySubsystem {
        config.validate();
        MemorySubsystem {
            phys: PhysMem::new(config.phys_bytes),
            cache: Cache::new(config.cache),
            tb: Tb::new(config.tb),
            sbi: Sbi::new(),
            wbuf: Vec::with_capacity(config.write_buffer_entries as usize),
            system: SystemMap { sbr: 0, slr: 0 },
            space: AddressSpace::empty(),
            counters: HwCounters::new(),
            last_fill_reads: (None, None),
            fault_hook: None,
            t_page: 0,
            t_frame: 0,
            t_gen: 0,
            shortcuts: true,
            config,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Physical memory (image loading).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// Mutable physical memory (image loading).
    pub fn phys_mut(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// Enable or disable the host-side one-entry translation shortcut
    /// (see `CpuConfig::fast_paths` in `vax_cpu`). On by default;
    /// `false` scans the TB on every translate, the straight-line
    /// reference behaviour.
    pub fn set_host_shortcuts(&mut self, on: bool) {
        self.shortcuts = on;
    }

    /// Install the system page-table description.
    pub fn set_system_map(&mut self, system: SystemMap) {
        self.system = system;
    }

    /// The installed system map.
    pub fn system_map(&self) -> SystemMap {
        self.system
    }

    /// Switch the current process address space (`LDPCTX`): installs the
    /// new base/length registers and flushes the process half of the TB.
    pub fn switch_address_space(&mut self, space: AddressSpace) {
        self.space = space;
        self.tb.flush_process();
    }

    /// TB content generation: bumped by every insert and flush. A cached
    /// (page → frame) shortcut taken by the IB prefetcher is valid only
    /// while the generation is unchanged — any TB mutation could have
    /// evicted the entry the shortcut relies on.
    #[inline]
    pub fn tb_generation(&self) -> u64 {
        self.tb.generation()
    }

    /// The current process address space.
    pub fn address_space(&self) -> AddressSpace {
        self.space
    }

    /// The hardware counters (the "cache study" instrument).
    pub fn counters(&self) -> &HwCounters {
        &self.counters
    }

    /// Mutable access for the CPU (e.g. unaligned-reference counting).
    pub fn counters_mut(&mut self) -> &mut HwCounters {
        &mut self.counters
    }

    /// The translation buffer (diagnostics).
    pub fn tb(&self) -> &Tb {
        &self.tb
    }

    /// The cache (diagnostics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Translate `va`. On a TB hit returns the physical address (no extra
    /// cycles); on a miss the CPU must run the miss microroutine.
    ///
    /// # Errors
    ///
    /// Returns [`TbMiss`] when the TB has no entry for the page.
    #[inline]
    pub fn translate(&mut self, va: u32, stream: Stream) -> Result<u32, TbMiss> {
        // One-entry shortcut: while the TB generation is unchanged, the
        // entry behind the last successful translation is still
        // resident, so a real lookup would hit with the same frame.
        // Count the hit and skip the set scan.
        let page = va & !(PAGE_BYTES - 1);
        if self.shortcuts && self.t_gen == self.tb.generation() && self.t_page == page {
            self.counters.tb_hits += 1;
            return Ok(self.t_frame + (va & (PAGE_BYTES - 1)));
        }
        match self.tb.lookup(va) {
            Some(pte) => {
                self.counters.tb_hits += 1;
                self.t_page = page;
                self.t_frame = pte.frame_pa();
                self.t_gen = self.tb.generation();
                Ok(pte.frame_pa() + (va & (PAGE_BYTES - 1)))
            }
            None => {
                match stream {
                    Stream::IFetch => self.counters.tb_miss_i += 1,
                    Stream::Data => self.counters.tb_miss_d += 1,
                }
                Err(TbMiss {
                    va,
                    half: TbHalf::of_va(va),
                })
            }
        }
    }

    /// Fill the TB entry for `va` by walking the page tables. The PTE reads
    /// go through the cache and may themselves stall (and, for process
    /// pages, may require a nested system-TB fill first).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] for length violations or invalid PTEs.
    pub fn tb_fill(&mut self, va: u32, now: u64) -> Result<TbFill, MemFault> {
        self.last_fill_reads = (None, None);
        let loc = paging::pte_location(&self.system, &self.space, va)
            .ok_or(MemFault::LengthViolation { va })?;
        let (system_fill, pte_pa) = match loc {
            PteLocation::Physical(pa) => (None, pa),
            PteLocation::SystemVirtual(sva) => {
                // The page-table page itself may miss in the system TB.
                let (fill, pa) = match self.tb.lookup(sva) {
                    Some(pte) => (None, pte.frame_pa() + (sva & (PAGE_BYTES - 1))),
                    None => {
                        // The nested system fill is part of servicing the
                        // original miss: one miss-routine entry, one count.
                        let outer_loc = paging::pte_location(&self.system, &self.space, sva)
                            .ok_or(MemFault::LengthViolation { va })?;
                        let outer_pa = match outer_loc {
                            PteLocation::Physical(pa) => pa,
                            PteLocation::SystemVirtual(_) => {
                                unreachable!("system PTEs live in physical memory")
                            }
                        };
                        let outcome = self.cached_read_u32(outer_pa, now, Stream::Data);
                        self.last_fill_reads.0 = Some(outcome);
                        let outer = Pte::from_raw(outcome.value);
                        if !outer.is_valid() {
                            return Err(MemFault::PageFault { va: sva });
                        }
                        self.tb.insert(sva, outer);
                        (Some(outcome), outer.frame_pa() + (sva & (PAGE_BYTES - 1)))
                    }
                };
                (fill, pa)
            }
        };
        let delay = system_fill.map_or(0, |f| u64::from(f.stall));
        let pte_read = self.cached_read_u32(pte_pa, now + delay, Stream::Data);
        self.last_fill_reads.1 = Some(pte_read);
        let pte = Pte::from_raw(pte_read.value);
        if !pte.is_valid() {
            return Err(MemFault::PageFault { va });
        }
        self.tb.insert(va, pte);
        Ok(TbFill {
            system_fill,
            pte_read,
        })
    }

    /// EBOX data read of `width` at physical address `pa` (must be aligned
    /// to `width`; the CPU splits unaligned references).
    #[inline]
    pub fn read(&mut self, pa: u32, width: Width, now: u64) -> ReadOutcome {
        debug_assert!(
            (pa & 3) + width.bytes() <= 4,
            "CPU must split longword-crossing reads"
        );
        let outcome = self.cached_read_u32(pa & !3, now, Stream::Data);
        let shift = (pa & 3) * 8;
        let mask = match width {
            Width::Byte => 0xFF,
            Width::Word => 0xFFFF,
            Width::Long => 0xFFFF_FFFF,
        };
        ReadOutcome {
            value: (outcome.value >> shift) & mask,
            ..outcome
        }
    }

    /// Core read path: aligned longword through the cache.
    #[inline]
    fn cached_read_u32(&mut self, pa: u32, now: u64, stream: Stream) -> ReadOutcome {
        debug_assert_eq!(pa & 3, 0);
        let hit = self.cache.probe(pa);
        let value = self.phys.read_u32(pa);
        if hit {
            match stream {
                Stream::IFetch => self.counters.cache_hit_i += 1,
                Stream::Data => self.counters.cache_hit_d += 1,
            }
            ReadOutcome {
                value,
                stall: 0,
                miss: false,
            }
        } else {
            match stream {
                Stream::IFetch => self.counters.cache_miss_i += 1,
                Stream::Data => self.counters.cache_miss_d += 1,
            }
            self.counters.sbi_reads += 1;
            let wait = self
                .sbi
                .acquire(now, u64::from(self.config.read_miss_cycles));
            self.cache.fill(pa);
            ReadOutcome {
                value,
                stall: wait as u32 + self.config.read_miss_cycles,
                miss: true,
            }
        }
    }

    /// EBOX data write of `width` at `pa` (aligned; CPU splits unaligned).
    ///
    /// One cycle to initiate (charged by the CPU as the µinstruction
    /// itself); the returned stall is the wait for the previous write to
    /// drain (paper §4.3).
    #[inline]
    pub fn write(&mut self, pa: u32, width: Width, value: u32, now: u64) -> WriteOutcome {
        // Any offset within one longword is a single reference (the byte
        // rotator handles it); only longword-crossing writes must be
        // split by the CPU.
        debug_assert!(
            (pa & 3) + width.bytes() <= 4,
            "CPU must split longword-crossing writes"
        );
        // Retire completed drains, then stall only if every buffer entry
        // is still occupied (the 11/780 has exactly one).
        self.wbuf.retain(|&done| done > now);
        let stall = if self.wbuf.len() < self.config.write_buffer_entries as usize {
            0
        } else {
            let earliest = self.wbuf.iter().copied().min().unwrap_or(now);
            let stall = earliest.saturating_sub(now);
            self.wbuf.retain(|&done| done > now + stall);
            stall
        };
        // The drain occupies the SBI starting when the buffer accepts it.
        let start = now + stall;
        let bus_wait = self.sbi.acquire(start, u64::from(self.config.write_cycles));
        self.wbuf
            .push(start + bus_wait + u64::from(self.config.write_cycles));
        self.counters.writes += 1;
        self.counters.sbi_writes += 1;
        if self.cache.write_probe(pa) {
            self.counters.write_hits += 1;
        }
        match width {
            Width::Byte => self.phys.write_u8(pa, value as u8),
            Width::Word => self.phys.write_u16(pa, value as u16),
            Width::Long => self.phys.write_u32(pa, value),
        }
        WriteOutcome {
            stall: stall as u32,
        }
    }

    /// IB longword fetch at `pa` (aligned to 4). Does not stall the EBOX;
    /// returns when the data arrives.
    #[inline]
    pub fn ifetch(&mut self, pa: u32, now: u64) -> IFetchOutcome {
        debug_assert_eq!(pa & 3, 0);
        self.counters.ib_requests += 1;
        let hit = self.cache.probe(pa);
        let value = self.phys.read_u32(pa);
        if hit {
            self.counters.cache_hit_i += 1;
            // One cycle of cache-to-IB transfer latency even on a hit.
            IFetchOutcome {
                data: value,
                ready_at: now + 1,
                miss: false,
            }
        } else {
            self.counters.cache_miss_i += 1;
            self.counters.sbi_reads += 1;
            let wait = self
                .sbi
                .acquire(now, u64::from(self.config.read_miss_cycles));
            self.cache.fill(pa);
            IFetchOutcome {
                data: value,
                ready_at: now + wait + u64::from(self.config.read_miss_cycles),
                miss: true,
            }
        }
    }

    /// The cache-read outcomes of the most recent [`MemorySubsystem::tb_fill`],
    /// `(system PTE read, PTE read)`, present even when the fill faulted.
    /// Lets an observer attribute the fill's cache/SBI traffic without
    /// changing `tb_fill`'s error type.
    pub fn last_fill_reads(&self) -> (Option<ReadOutcome>, Option<ReadOutcome>) {
        self.last_fill_reads
    }

    /// Write-buffer entries currently occupied (most recently completed
    /// write included until its drain time passes).
    pub fn write_buffer_occupancy(&self) -> usize {
        self.wbuf.len()
    }

    /// Record bytes accepted by the IB (for the §4.1 statistic).
    #[inline]
    pub fn note_ib_bytes(&mut self, n: u32) {
        self.counters.ib_bytes_delivered += u64::from(n);
    }

    /// Inject a DMA transaction onto the SBI (disk/terminal controllers
    /// on a live timesharing system). The bus is occupied for `duration`
    /// cycles starting no earlier than `now`; CPU misses arriving during
    /// the transfer wait it out.
    pub fn inject_dma(&mut self, now: u64, duration: u64) {
        self.sbi.acquire(now, duration);
    }

    // ----- fault injection -------------------------------------------------

    /// Install a fault-injection engine. It is inert until
    /// [`arm_fault_hook`](MemorySubsystem::arm_fault_hook) is called.
    pub fn set_fault_hook(&mut self, hook: Box<FaultEngine>) {
        self.fault_hook = Some(hook);
    }

    /// Arm the installed engine: trigger offsets count from `now`.
    pub fn arm_fault_hook(&mut self, now: u64) {
        if let Some(hook) = &mut self.fault_hook {
            hook.arm(now);
        }
    }

    /// The earliest cycle at which [`poll_fault`](Self::poll_fault)
    /// can return a fault ([`FaultEngine::due`]; `u64::MAX` without an
    /// engine). A poll before it is a no-op.
    #[inline]
    pub fn fault_due(&self) -> u64 {
        self.fault_hook.as_ref().map_or(u64::MAX, |hook| hook.due())
    }

    /// Report `n` consecutive issues from `upc` to the engine (µPC-keyed
    /// triggers).
    #[inline]
    pub fn observe_upc(&mut self, upc: u16, n: u32) {
        if let Some(hook) = &mut self.fault_hook {
            hook.observe_issue(upc, n);
        }
    }

    /// Has a scheduled fault matured by `now`? At most one per call; the
    /// CPU polls at instruction boundaries so the fault is taken between
    /// instructions (architecturally survivable).
    #[inline]
    pub fn poll_fault(&mut self, now: u64) -> Option<FaultClass> {
        match &mut self.fault_hook {
            Some(hook) => hook.poll(now),
            None => None,
        }
    }

    /// The machine took an injected fault: count it on the hardware
    /// monitor, log it on the engine, and apply the class's perturbation to
    /// the subsystem state (this is what makes the fault *observable*
    /// beyond its recovery-microcode cycles).
    pub fn apply_fault(&mut self, class: FaultClass, now: u64) {
        self.counters.machine_checks += 1;
        if let Some(hook) = &mut self.fault_hook {
            hook.record_taken(class, now);
        }
        match class {
            // A parity error poisons the whole cache: recovery microcode
            // flushes it and lets demand misses rebuild it.
            FaultClass::CacheParity => self.cache.invalidate_all(),
            // A corrupt TB entry cannot be located precisely; recovery
            // invalidates the TB and the miss microcode refills it.
            FaultClass::TbCorrupt => self.tb.flush_all(),
            // A timed-out transfer is retried: the bus is held for the
            // retry window, delaying any miss that arrives meanwhile.
            FaultClass::SbiTimeout => {
                let retry = 4 * u64::from(self.config.read_miss_cycles);
                self.sbi.acquire(now, retry);
            }
            // The suspect buffered longword is re-sent: forced drain,
            // re-occupying the SBI for one write time.
            FaultClass::WriteBufferError => {
                self.wbuf.clear();
                self.sbi.acquire(now, u64::from(self.config.write_cycles));
            }
            // A control-store bit flip is repaired from the backup copy:
            // pure recovery-cycle burn, no memory-side effect.
            FaultClass::ControlStoreBitFlip => {}
        }
    }

    /// The log of faults taken so far (empty without an engine).
    pub fn faults_fired(&self) -> Vec<FiredFault> {
        self.fault_hook
            .as_ref()
            .map_or_else(Vec::new, |h| h.fired().to_vec())
    }

    /// Software page-table walk with no cache/TB/timing effects: would a
    /// reference to `va` translate? Used by the `PROBEx` instructions.
    pub fn probe_va(&self, va: u32) -> bool {
        paging::resolve_va(&self.phys, &self.system, &self.space, va).is_some()
    }

    /// Software (non-simulated) read of a virtual longword, for test and
    /// workload setup. Panics on unmapped addresses.
    pub fn debug_read_virtual_u32(&self, va: u32) -> u32 {
        let pa = paging::resolve_va(&self.phys, &self.system, &self.space, va)
            .unwrap_or_else(|| panic!("debug read of unmapped VA {va:#010x}"));
        self.phys.read_u32(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapBuilder;

    fn machine() -> MemorySubsystem {
        let mut mem = MemorySubsystem::new(MemConfig::default());
        let mut mb = MapBuilder::new(mem.phys(), 4096);
        let sys_base = mb.map_system(mem.phys_mut(), 64);
        assert_eq!(sys_base, 0x8000_0000);
        let space = mb.create_process(mem.phys_mut(), 64, 8);
        mem.set_system_map(mb.system_map());
        mem.switch_address_space(space);
        mem
    }

    #[test]
    fn translate_miss_then_fill_then_hit() {
        let mut mem = machine();
        let miss = mem.translate(0x1000, Stream::Data).unwrap_err();
        assert_eq!(miss.half, TbHalf::Process);
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        assert_eq!(pa & (PAGE_BYTES - 1), 0x1000 & (PAGE_BYTES - 1));
    }

    #[test]
    fn process_fill_can_double_miss() {
        let mut mem = machine();
        // First process fill: the page-table page is not in the system TB.
        let fill = mem.tb_fill(0x1000, 0).unwrap();
        assert!(fill.system_fill.is_some(), "double miss on first touch");
        // Second fill for a nearby page: page-table page now cached in TB.
        let fill2 = mem.tb_fill(0x1000 + PAGE_BYTES, 100).unwrap();
        assert!(fill2.system_fill.is_none());
    }

    #[test]
    fn read_miss_stalls_then_hits() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        // By cycle 20 the page-walk's SBI traffic has drained.
        let first = mem.read(pa, Width::Long, 20);
        assert!(first.miss);
        assert_eq!(first.stall, 6);
        let again = mem.read(pa, Width::Long, 40);
        assert!(!again.miss);
        assert_eq!(again.stall, 0);
    }

    #[test]
    fn back_to_back_writes_stall() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        let w1 = mem.write(pa, Width::Long, 1, 100);
        assert_eq!(w1.stall, 0);
        let w2 = mem.write(pa + 4, Width::Long, 2, 102);
        assert_eq!(w2.stall, 4, "second write waits for the buffer");
        let w3 = mem.write(pa + 8, Width::Long, 3, 200);
        assert_eq!(w3.stall, 0, "spaced writes do not stall");
    }

    #[test]
    fn deeper_write_buffer_absorbs_bursts() {
        let mut mem = MemorySubsystem::new(MemConfig {
            write_buffer_entries: 4,
            ..MemConfig::default()
        });
        let mut mb = MapBuilder::new(mem.phys(), 4096);
        mb.map_system(mem.phys_mut(), 8);
        let space = mb.create_process(mem.phys_mut(), 16, 4);
        mem.set_system_map(mb.system_map());
        mem.switch_address_space(space);
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        // Four back-to-back writes: none stall with a 4-entry buffer.
        for i in 0..4 {
            let w = mem.write(pa + 4 * i, Width::Long, i, 100 + u64::from(i));
            assert_eq!(w.stall, 0, "write {i}");
        }
        // The fifth waits for the first drain.
        let w = mem.write(pa + 16, Width::Long, 9, 104);
        assert!(w.stall > 0, "buffer full");
    }

    #[test]
    fn write_through_updates_memory() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        mem.write(pa, Width::Long, 0xCAFE_F00D, 0);
        assert_eq!(mem.read(pa, Width::Long, 100).value, 0xCAFE_F00D);
        assert_eq!(mem.debug_read_virtual_u32(0x1000), 0xCAFE_F00D);
    }

    #[test]
    fn ifetch_miss_does_not_block_but_occupies_bus() {
        let mut mem = machine();
        mem.tb_fill(0x8000_0000, 0).unwrap();
        mem.tb_fill(0x1000, 20).unwrap();
        // Page-walk SBI traffic has drained by cycle 100.
        let pa = mem.translate(0x8000_0000, Stream::IFetch).unwrap();
        let f = mem.ifetch(pa, 100);
        assert!(f.miss);
        assert_eq!(f.ready_at, 106);
        // An EBOX miss right after waits for the IB's bus transaction.
        let dpa = mem.translate(0x1000, Stream::Data).unwrap();
        let r = mem.read(dpa, Width::Long, 101);
        assert!(r.miss);
        assert_eq!(r.stall, 5 + 6, "waits out the IB fill, then its own");
    }

    #[test]
    fn subword_reads_extract_correct_bytes() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        mem.write(pa, Width::Long, 0x0403_0201, 0);
        assert_eq!(mem.read(pa, Width::Byte, 50).value, 0x01);
        assert_eq!(mem.read(pa + 1, Width::Byte, 60).value, 0x02);
        assert_eq!(mem.read(pa + 2, Width::Word, 70).value, 0x0403);
    }

    #[test]
    fn context_switch_flushes_process_tb() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        assert!(mem.translate(0x1000, Stream::Data).is_ok());
        let space = mem.address_space();
        mem.switch_address_space(space);
        assert!(mem.translate(0x1000, Stream::Data).is_err());
    }

    #[test]
    fn length_violation_faults() {
        let mut mem = machine();
        let fault = mem.tb_fill(0x3F00_0000, 0).unwrap_err();
        assert!(matches!(fault, MemFault::LengthViolation { .. }));
    }

    #[test]
    fn applied_faults_perturb_state_and_count() {
        let mut mem = machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        mem.read(pa, Width::Long, 20); // warm the cache
        assert!(mem.cache().valid_lines() > 0);
        assert!(mem.tb().valid_entries() > 0);

        mem.apply_fault(FaultClass::CacheParity, 100);
        assert_eq!(mem.cache().valid_lines(), 0, "parity flushes the cache");
        mem.apply_fault(FaultClass::TbCorrupt, 110);
        assert_eq!(mem.tb().valid_entries(), 0, "corruption flushes the TB");
        let free_before = mem.sbi.is_free(200);
        assert!(free_before);
        mem.apply_fault(FaultClass::SbiTimeout, 200);
        assert!(!mem.sbi.is_free(200), "retry occupies the bus");
        mem.apply_fault(FaultClass::ControlStoreBitFlip, 300);
        assert_eq!(mem.counters().machine_checks, 4);
    }

    #[test]
    fn fault_hook_drives_poll_and_fired_log() {
        use vax_fault::{FaultPlan, FaultTrigger};
        let mut mem = machine();
        assert_eq!(mem.fault_due(), u64::MAX, "no engine");
        assert_eq!(mem.poll_fault(u64::MAX), None);
        let plan = FaultPlan::new().with(FaultClass::CacheParity, FaultTrigger::AtCycle(50));
        mem.set_fault_hook(Box::new(FaultEngine::new(&plan)));
        assert_eq!(mem.fault_due(), u64::MAX, "installed but unarmed");
        mem.arm_fault_hook(1_000);
        assert_eq!(mem.fault_due(), 1_050);
        assert_eq!(mem.poll_fault(1_010), None);
        assert_eq!(mem.poll_fault(1_050), Some(FaultClass::CacheParity));
        assert_eq!(mem.fault_due(), u64::MAX, "nothing left to fire");
        mem.apply_fault(FaultClass::CacheParity, 1_051);
        let fired = mem.faults_fired();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].class, FaultClass::CacheParity);
        assert_eq!(fired[0].at_cycle, 1_051);
    }

    #[test]
    fn counters_track_events() {
        let mut mem = machine();
        assert!(mem.translate(0x1000, Stream::Data).is_err());
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        mem.read(pa, Width::Long, 10);
        mem.write(pa, Width::Long, 5, 20);
        let c = mem.counters();
        assert!(c.tb_miss_d >= 1);
        assert!(c.cache_miss_d >= 1);
        assert_eq!(c.writes, 1);
    }
}
